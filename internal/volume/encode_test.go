package volume

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestWriteToMatchesBinaryWrite: the chunked encoder writes the bytes
// binary.Write wrote for a map — the header as two little-endian
// uint32, then every sample's bits — on grids whose samples span no,
// one and several chunks, with −0, NaN (three kinds) and ±Inf planted
// in them, and reports the byte count it wrote.
func TestWriteToMatchesBinaryWrite(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	}
	for _, l := range []int{1, 2, 20, 21, 43} { // 43³ = 79 507 samples: several chunks and a partial one
		g := randomGrid(r, l)
		for i := range g.Data {
			if r.Intn(5) == 0 {
				g.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		g.Data[len(g.Data)-1] = specials[0]
		var want bytes.Buffer
		if err := binary.Write(&want, binary.LittleEndian, []uint32{gridMagic, uint32(g.L)}); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(&want, binary.LittleEndian, g.Data); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		n, err := g.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("l=%d: WriteTo's bytes differ from binary.Write's", l)
		}
		if n != int64(want.Len()) {
			t.Fatalf("l=%d: WriteTo reports %d bytes, wrote %d", l, n, want.Len())
		}
	}
}

// BenchmarkWriteGridFile and BenchmarkReadGridFile time one map file
// write (fsync included) and read at l = 64, the recon_fsc map size.
func BenchmarkWriteGridFile(b *testing.B) {
	g := randomGrid(rand.New(rand.NewSource(1)), 64)
	path := filepath.Join(b.TempDir(), "bench.map")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteGridFile(path, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadGridFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.map")
	if err := WriteGridFile(path, randomGrid(rand.New(rand.NewSource(1)), 64)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadGridFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
