package volume

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization: a little-endian header (magic, size) followed
// by raw float64 samples. This stands in for the lab's map/image file
// formats; a master node reads whole files and distributes segments,
// exactly as §3 of the paper assumes.

const gridMagic = 0x4d504456 // "VDPM"

// WriteGrid serializes g to w.
func (g *Grid) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	hdr := []uint32{gridMagic, uint32(g.L)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Data); err != nil {
		return 0, err
	}
	n := int64(8 + 8*len(g.Data))
	return n, bw.Flush()
}

// ReadGrid deserializes a grid written by Grid.WriteTo.
func ReadGrid(r io.Reader) (*Grid, error) {
	br := bufio.NewReader(r)
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("volume: reading grid header: %w", err)
	}
	if hdr[0] != gridMagic {
		return nil, fmt.Errorf("volume: bad grid magic %#x", hdr[0])
	}
	l := int(hdr[1])
	if l < 1 || l > 4096 {
		return nil, fmt.Errorf("volume: implausible grid size %d", l)
	}
	g := NewGrid(l)
	if err := binary.Read(br, binary.LittleEndian, g.Data); err != nil {
		return nil, fmt.Errorf("volume: reading grid data: %w", err)
	}
	return g, nil
}

// WritePGM renders the image as a binary 8-bit PGM, linearly mapping
// [min, max] to [0, 255]. Used to export density cross-sections like
// the paper's Fig. 2.
func (im *Image) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.L, im.L); err != nil {
		return err
	}
	min, max, _, _ := im.Stats()
	span := max - min
	if span == 0 {
		span = 1
	}
	for j := 0; j < im.L; j++ {
		for k := 0; k < im.L; k++ {
			v := (im.At(j, k) - min) / span
			b := byte(math.Round(255 * v))
			if err := bw.WriteByte(b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
