package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// FuzzJobSpecNormalize: every body POST /jobs decodes is exactly one
// JSON value, normalize never panics on it, and every spec it accepts
// is a fixed point. The normalized spec survives a JSON round trip
// unchanged (it is what the journal records) and re-normalizes to
// itself with the same dataset (resuming a journaled job normalizes it
// again).
func FuzzJobSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"asymmetric"}`,
		`{"type":"cycle","dataset":"asymmetric","scale":2.5,"views":4,"levels":2,"max_cycles":2,"init_seed":3}`,
		`{"dataset":"sindbis","scale":3,"views":100,"levels":4,"pad":1,"search":"exhaustive","search_seed":7}`,
		`{"type":"cycle","dataset":"reo-like","views":1000,"plateau_eps":0.5,"plateau_window":-1}`,
		`{"dataset":"reo","scale":1e300,"init_error":-0}`,
		`{"type":"refine","dataset":"asymmetric","max_cycles":2}`,
		`{"dataset":"asymmetric","bogus":1}`,
		`{"dataset":"sindbis"}{"dataset":"reo"}`,
		`{"dataset":"sindbis"} garbage`,
		`{"dataset":"sindbis"}]`,
		"{\"dataset\":\"sindbis\"}\n\t ",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("decodeSpec accepted %q, which is not exactly one JSON value", data)
		}
		norm, wspec, err := spec.normalize()
		if err != nil {
			return
		}
		raw, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", norm, err)
		}
		if back, err := decodeSpec(bytes.NewReader(raw)); err != nil || back != norm {
			t.Fatalf("JSON round trip of %s: got %+v (%v), want %+v", raw, back, err, norm)
		}
		again, wagain, err := norm.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on re-normalize: %v", norm, err)
		}
		if again != norm {
			t.Fatalf("re-normalize moved the spec:\n  first  %+v\n  second %+v", norm, again)
		}
		if !sameDataset(wspec, wagain) {
			t.Fatalf("re-normalize moved the dataset:\n  first  %+v\n  second %+v", wspec, wagain)
		}
	})
}

// sameDataset compares two dataset specs field by field, the phantom
// constructor by identity.
func sameDataset(a, b workload.DatasetSpec) bool {
	if reflect.ValueOf(a.Phantom).Pointer() != reflect.ValueOf(b.Phantom).Pointer() {
		return false
	}
	a.Phantom, b.Phantom = nil, nil
	return reflect.DeepEqual(a, b)
}
