package fsc

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCurveJSONRoundTrip pins the exactness contract: a curve with
// adversarial float64 values (subnormals, values a shortest-repr
// printer must carry 17 digits for, exact-binary fractions) survives
// marshal→unmarshal bit for bit.
func TestCurveJSONRoundTrip(t *testing.T) {
	c := &Curve{
		PixelA: 2.8000000000000003, // not representable at fewer digits
		Points: []Point{
			{Shell: 1, FreqPerA: 0.1, ResolutionA: 10, CC: 0.9999999999999999},
			{Shell: 2, FreqPerA: math.Nextafter(0.2, 1), ResolutionA: 1 / math.Nextafter(0.2, 1), CC: -0.3},
			{Shell: 3, FreqPerA: 0.25, ResolutionA: 4, CC: 5e-324}, // smallest subnormal
		},
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var got Curve
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, c) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, *c)
	}
	// A second generation must be byte-identical (stable wire shape).
	data2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal not byte-identical:\n%s\n%s", data, data2)
	}
}

// TestCurveJSONShape pins the wire schema — the cycle journal and any
// external consumer parse these exact keys.
func TestCurveJSONShape(t *testing.T) {
	c := &Curve{PixelA: 2, Points: []Point{{Shell: 1, FreqPerA: 0.5, ResolutionA: 2, CC: 0.75}}}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"pixel_a":2,"points":[{"shell":1,"freq_per_a":0.5,"resolution_a":2,"cc":0.75}]}`
	if string(data) != want {
		t.Fatalf("wire shape = %s, want %s", data, want)
	}
}

// TestCurveJSONEmpty distinguishes the two empty shapes: nil points
// round-trip as null, a present-but-empty slice as [].
func TestCurveJSONEmpty(t *testing.T) {
	for _, c := range []*Curve{{PixelA: 1}, {PixelA: 1, Points: []Point{}}} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var got Curve
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, c) {
			t.Fatalf("empty round trip drifted: got %#v want %#v", got, *c)
		}
	}
}

// TestCurveJSONRejects exercises the validation: unusable pixel sizes
// and malformed documents are errors, not silent zero values.
func TestCurveJSONRejects(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"zero pixel with shells", `{"pixel_a":0,"points":[{"shell":1,"freq_per_a":0.5,"resolution_a":2,"cc":0.5}]}`},
		{"negative pixel with shells", `{"pixel_a":-2,"points":[{"shell":1,"freq_per_a":0.5,"resolution_a":2,"cc":0.5}]}`},
		{"not an object", `[1,2,3]`},
	}
	for _, tc := range cases {
		var c Curve
		if err := json.Unmarshal([]byte(tc.doc), &c); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		} else if !strings.Contains(err.Error(), "fsc:") {
			t.Errorf("%s: error %q not from fsc", tc.name, err)
		}
	}
}

// FuzzCurveJSON: whatever bytes reach the curve decoder,
// UnmarshalJSON, ResolutionAt(0.5) and MeanCC never panic, and every
// accepted curve re-marshals and decodes again to identical Points,
// bit for bit.
func FuzzCurveJSON(f *testing.F) {
	for _, seed := range []string{
		`{"pixel_a":2,"points":[{"shell":1,"freq_per_a":0.5,"resolution_a":2,"cc":0.75}]}`,
		`{"pixel_a":2.8000000000000003,"points":[{"shell":1,"freq_per_a":0.1,"resolution_a":10,"cc":0.9999999999999999},{"shell":2,"freq_per_a":0.2,"resolution_a":5,"cc":-0.3},{"shell":3,"freq_per_a":0.25,"resolution_a":4,"cc":5e-324}]}`,
		`{"pixel_a":1,"points":[]}`,
		`{"pixel_a":1,"points":null}`,
		`{"pixel_a":-1}`,
		`{"pixel_a":0,"points":[{"shell":1,"cc":0.5}]}`,
		`{"points":[{"shell":1,"cc":0.5},{"shell":2,"cc":0.5}],"pixel_a":1e308}`,
		`{"PIXEL_A":3,"points":[{"shell":-7,"freq_per_a":-0,"resolution_a":1e-300,"cc":1e300}]}`,
		`[1,2,3]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Curve
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		c.ResolutionAt(0.5)
		c.MeanCC()
		raw, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("accepted curve %+v does not marshal: %v", c, err)
		}
		var back Curve
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("re-marshaled curve %s rejected: %v", raw, err)
		}
		same := (back.Points == nil) == (c.Points == nil) && len(back.Points) == len(c.Points) &&
			math.Float64bits(back.PixelA) == math.Float64bits(c.PixelA)
		for i := 0; same && i < len(c.Points); i++ {
			p, q := c.Points[i], back.Points[i]
			same = p.Shell == q.Shell && math.Float64bits(p.FreqPerA) == math.Float64bits(q.FreqPerA) &&
				math.Float64bits(p.ResolutionA) == math.Float64bits(q.ResolutionA) &&
				math.Float64bits(p.CC) == math.Float64bits(q.CC)
		}
		if !same {
			t.Fatalf("round trip of %s drifted:\n got %+v\nwant %+v", raw, back, c)
		}
	})
}
