package volume

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// gridFileBytes serializes a small random grid.
func gridFileBytes(t testing.TB, l int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := randomGrid(rand.New(rand.NewSource(1)), l).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// headerOnly is a bare header declaring an l³ grid.
func headerOnly(l uint32) []byte {
	b := make([]byte, gridHeaderLen)
	binary.LittleEndian.PutUint32(b, gridMagic)
	binary.LittleEndian.PutUint32(b[4:], l)
	return b
}

// TestReadGridRejectsDamage: a header that claims more samples than the
// input holds, a truncated file and trailing bytes are each an error
// from both readers — and the oversized header, which once allocated
// 2048³ samples before reading one, costs no more than the read buffers.
func TestReadGridRejectsDamage(t *testing.T) {
	valid := gridFileBytes(t, 3)
	for _, tc := range []struct {
		name, fileErr string
		data          []byte
	}{
		{"oversized header", "a 2048³ grid takes", headerOnly(2048)},
		{"oversized header with samples", "a 4096³ grid takes", append(headerOnly(4096), valid[gridHeaderLen:]...)},
		{"truncated", "a 3³ grid takes", valid[:len(valid)-5]},
		{"trailing bytes", "a 3³ grid takes", append(append([]byte(nil), valid...), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadGrid(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("ReadGrid accepted a damaged grid")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("ReadGrid allocated %d bytes for %d bytes of input", grew, len(tc.data))
			}
			path := filepath.Join(t.TempDir(), "damaged.map")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadGridFile(path); err == nil || !strings.Contains(err.Error(), tc.fileErr) {
				t.Fatalf("ReadGridFile: got %v, want an error containing %q", err, tc.fileErr)
			}
		})
	}
	path := filepath.Join(t.TempDir(), "valid.map")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGridFile(path); err != nil {
		t.Fatalf("valid grid file rejected: %v", err)
	}
}

// TestReadGridChunkBoundaries round-trips grids whose sample counts sit
// below and across the reader's chunk size.
func TestReadGridChunkBoundaries(t *testing.T) {
	for _, l := range []int{1, 20, 21} { // 1, 8000 < readChunk < 9261 samples
		data := gridFileBytes(t, l)
		g, err := ReadGrid(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		var out bytes.Buffer
		if _, err := g.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("l=%d: round trip changed the bytes", l)
		}
	}
}

// FuzzReadGrid: the map reader never panics and its memory follows the
// input, not the header; every input it accepts re-serializes through
// WriteTo byte for byte; and the file reader accepts exactly what the
// stream reader accepts.
func FuzzReadGrid(f *testing.F) {
	valid := gridFileBytes(f, 2)
	f.Add(valid)
	f.Add(valid[:gridHeaderLen])
	f.Add(append(append([]byte(nil), valid...), 7))
	f.Add(headerOnly(2048))
	f.Add(append(headerOnly(1), 0, 0, 0, 0, 0, 0, 0xf8, 0x7f)) // a NaN sample
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGrid(bytes.NewReader(data))
		path := filepath.Join(t.TempDir(), "fuzz.map")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		if _, ferr := ReadGridFile(path); (ferr == nil) != (err == nil) {
			t.Fatalf("ReadGrid error %v but ReadGridFile error %v", err, ferr)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := g.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-serialize to %d different bytes", len(data), out.Len())
		}
	})
}
