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

// WriteTo serializes g to w: the header, then the samples encoded
// writeChunk samples at a time into one buffer, so a map write costs one
// chunk of memory rather than a copy of the map in bytes.
func (g *Grid) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, gridHeaderLen, 8*min(len(g.Data), writeChunk)+gridHeaderLen)
	binary.LittleEndian.PutUint32(buf, gridMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(g.L))
	var n int64
	data := g.Data
	for {
		k := min(len(data), writeChunk)
		for _, v := range data[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		data = data[k:]
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil || len(data) == 0 {
			return n, err
		}
		buf = buf[:0]
	}
}

// gridHeaderLen is the byte length of the header: magic, then size.
const gridHeaderLen = 8

// readChunk is how many samples ReadGrid decodes per read, and
// writeChunk how many WriteTo encodes per write.
const readChunk, writeChunk = 1 << 13, 1 << 13

// parseGridHeader validates a header and returns the grid size l it
// declares.
func parseGridHeader(hdr [gridHeaderLen]byte) (int, error) {
	if magic := binary.LittleEndian.Uint32(hdr[:4]); magic != gridMagic {
		return 0, fmt.Errorf("volume: bad grid magic %#x", magic)
	}
	l := int(binary.LittleEndian.Uint32(hdr[4:]))
	if l < 1 || l > 4096 {
		return 0, fmt.Errorf("volume: implausible grid size %d", l)
	}
	return l, nil
}

// gridBytes is the serialized length of an l³ grid.
func gridBytes(l int) int64 { return gridHeaderLen + 8*int64(l)*int64(l)*int64(l) }

// ReadGrid deserializes a grid written by Grid.WriteTo. Samples are
// decoded readChunk at a time, so memory grows with the bytes actually
// present rather than with the size the header claims: a damaged header
// is an error, not an allocation of up to 4096³ samples. Bytes after
// the last sample are an error too.
func ReadGrid(r io.Reader) (*Grid, error) { return readGrid(r, false) }

// readGrid is ReadGrid; with sized set it makes room for all the
// samples the header declares at once instead of growing with the
// bytes read, which ReadGridFile asks for once it has checked the
// file's length against the header.
func readGrid(r io.Reader, sized bool) (*Grid, error) {
	br := bufio.NewReader(r)
	var hdr [gridHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("volume: reading grid header: %w", err)
	}
	l, err := parseGridHeader(hdr)
	if err != nil {
		return nil, err
	}
	n := l * l * l
	var data []float64
	if sized {
		data = make([]float64, 0, n)
	}
	var buf [8 * readChunk]byte
	for len(data) < n {
		k := min(n-len(data), readChunk)
		if _, err := io.ReadFull(br, buf[:8*k]); err != nil {
			return nil, fmt.Errorf("volume: reading grid data (%d of %d samples): %w", len(data), n, err)
		}
		if len(data)+k > cap(data) {
			// Double, capped at n: never more than twice the samples
			// read, and no more garbage than one full-size buffer.
			grown := make([]float64, len(data), min(n, max(2*cap(data), readChunk)))
			copy(grown, data)
			data = grown
		}
		start := len(data)
		data = data[:start+k]
		for i := range k {
			data[start+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	switch _, err := br.ReadByte(); err {
	case io.EOF:
		return &Grid{L: l, Data: data}, nil
	case nil:
		return nil, fmt.Errorf("volume: trailing bytes after a %d³ grid", l)
	default:
		return nil, fmt.Errorf("volume: reading grid data: %w", err)
	}
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
