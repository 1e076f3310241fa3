package volume

import (
	"fmt"
	"math"
)

// Image is a square l×l real-valued image: an experimental particle
// view E_q extracted from a micrograph, or a computed projection.
type Image struct {
	L    int
	Data []float64
}

// NewImage allocates a zeroed l×l image.
func NewImage(l int) *Image {
	if l < 1 {
		panic(fmt.Sprintf("volume: invalid image size %d", l))
	}
	return &Image{L: l, Data: make([]float64, l*l)}
}

// Index returns the flat index of pixel (j, k).
func (im *Image) Index(j, k int) int { return j*im.L + k }

// At returns the pixel value at (j, k).
func (im *Image) At(j, k int) float64 { return im.Data[j*im.L+k] }

// Set stores v at pixel (j, k).
func (im *Image) Set(j, k int, v float64) { im.Data[j*im.L+k] = v }

// Add accumulates v into pixel (j, k).
func (im *Image) Add(j, k int, v float64) { im.Data[j*im.L+k] += v }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := NewImage(im.L)
	copy(c.Data, im.Data)
	return c
}

// Center returns the integer coordinate of the image origin, l/2.
func (im *Image) Center() int { return im.L / 2 }

// Stats returns min, max, mean and standard deviation of pixel values.
func (im *Image) Stats() (min, max, mean, std float64) {
	return stats(im.Data)
}

// Scale multiplies every pixel by s.
func (im *Image) Scale(s float64) {
	for i := range im.Data {
		im.Data[i] *= s
	}
}

// Normalize shifts and scales the image to zero mean and unit standard
// deviation; a constant image becomes all zeros.
func (im *Image) Normalize() {
	_, _, mean, std := im.Stats()
	if std == 0 {
		for i := range im.Data {
			im.Data[i] = 0
		}
		return
	}
	for i := range im.Data {
		im.Data[i] = (im.Data[i] - mean) / std
	}
}

// Interp samples the image at fractional coordinates by bilinear
// interpolation; points outside contribute zero.
func (im *Image) Interp(x, y float64) float64 {
	l := im.L
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	var sum float64
	for dx := 0; dx <= 1; dx++ {
		wx := 1 - fx
		if dx == 1 {
			wx = fx
		}
		xi := x0 + dx
		if xi < 0 || xi >= l || wx == 0 {
			continue
		}
		for dy := 0; dy <= 1; dy++ {
			wy := 1 - fy
			if dy == 1 {
				wy = fy
			}
			yi := y0 + dy
			if yi < 0 || yi >= l || wy == 0 {
				continue
			}
			sum += wx * wy * im.At(xi, yi)
		}
	}
	return sum
}

// Shift resamples the image translated by (dx, dy) pixels using
// bilinear interpolation: output(j,k) = input(j−dx, k−dy).
func (im *Image) Shift(dx, dy float64) *Image {
	out := NewImage(im.L)
	for j := 0; j < im.L; j++ {
		for k := 0; k < im.L; k++ {
			out.Set(j, k, im.Interp(float64(j)-dx, float64(k)-dy))
		}
	}
	return out
}

// CenterOfMass returns the intensity-weighted centroid of the image
// (using values offset by the image minimum so negative baselines do
// not corrupt the estimate).
func (im *Image) CenterOfMass() (cx, cy float64) {
	min, _, _, _ := im.Stats()
	var m, sx, sy float64
	for j := 0; j < im.L; j++ {
		for k := 0; k < im.L; k++ {
			w := im.At(j, k) - min
			m += w
			sx += w * float64(j)
			sy += w * float64(k)
		}
	}
	if m == 0 {
		c := float64(im.Center())
		return c, c
	}
	return sx / m, sy / m
}

// ImageCorrelation returns the Pearson cross-correlation of two
// equally sized images.
func ImageCorrelation(a, b *Image) float64 {
	if a.L != b.L {
		panic(fmt.Sprintf("volume: image size mismatch %d vs %d", a.L, b.L))
	}
	return pearson(a.Data, b.Data)
}

// CImage is a square complex-valued image: the 2-D DFT F_q of a view,
// or a central section C of a 3-D DFT, in standard DFT layout.
type CImage struct {
	L    int
	Data []complex128
}

// NewCImage allocates a zeroed complex l×l image.
func NewCImage(l int) *CImage {
	if l < 1 {
		panic(fmt.Sprintf("volume: invalid image size %d", l))
	}
	return &CImage{L: l, Data: make([]complex128, l*l)}
}

// Index returns the flat index of element (j, k).
func (im *CImage) Index(j, k int) int { return j*im.L + k }

// At returns the element at (j, k).
func (im *CImage) At(j, k int) complex128 { return im.Data[j*im.L+k] }

// Set stores v at (j, k).
func (im *CImage) Set(j, k int, v complex128) { im.Data[j*im.L+k] = v }

// Clone returns a deep copy.
func (im *CImage) Clone() *CImage {
	c := NewCImage(im.L)
	copy(c.Data, im.Data)
	return c
}

// Real extracts the real part of a complex image.
func (im *CImage) Real() *Image {
	r := NewImage(im.L)
	for i, v := range im.Data {
		r.Data[i] = real(v)
	}
	return r
}

// Energy returns Σ|v|² over the image.
func (im *CImage) Energy() float64 {
	var e float64
	for _, v := range im.Data {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}
