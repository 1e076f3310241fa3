// Package brick implements the design alternative that §6 of the
// paper discusses and rejects: instead of replicating the 3-D DFT of
// the electron-density map on every node, "implement a shared virtual
// memory where 3D bricks of the electron density or its DFT are
// brought on demand in each node when they are needed" (the strategy
// of the paper's ref. [6]).
//
// A Store partitions the centred spectrum into cubic bricks; a Client
// stands for one simulated node that fetches bricks on demand over the
// modeled network (one-sided gets), keeps an LRU cache, and adds up the
// modeled seconds its misses cost. Running the same central-section
// extractions through a Client and through a local replica turns the
// paper's qualitative communication-cost argument into a measured
// comparison (see BenchmarkAblationReplication).
package brick

import (
	"container/list"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// Store is the brick-partitioned view of a volume spectrum. It is
// read-only and shared by all clients.
type Store struct {
	dft *fourier.VolumeDFT
	// Edge is the brick edge length in lattice points.
	Edge int
	// nb is the number of bricks per axis.
	nb int
}

// NewStore partitions the spectrum into bricks of the given edge
// (clamped to the lattice size).
func NewStore(dft *fourier.VolumeDFT, edge int) (*Store, error) {
	if edge < 2 {
		return nil, fmt.Errorf("brick: edge must be ≥ 2, got %d", edge)
	}
	if edge > dft.L {
		edge = dft.L
	}
	nb := (dft.L + edge - 1) / edge
	return &Store{dft: dft, Edge: edge, nb: nb}, nil
}

// Bricks returns the number of bricks per axis.
func (s *Store) Bricks() int { return s.nb }

// BrickBytes is the serialized size of one brick.
func (s *Store) BrickBytes() int { return s.Edge * s.Edge * s.Edge * 16 }

// brickID identifies one brick by its per-axis indices.
type brickID struct{ x, y, z int }

// brickOf maps a lattice point to its brick.
func (s *Store) brickOf(x, y, z int) brickID {
	return brickID{x / s.Edge, y / s.Edge, z / s.Edge}
}

// fetch copies one brick's contents (zero-padded at lattice edges).
func (s *Store) fetch(id brickID) []complex128 {
	e := s.Edge
	out := make([]complex128, e*e*e)
	l := s.dft.L
	x0, y0, z0 := id.x*e, id.y*e, id.z*e
	for dx := 0; dx < e && x0+dx < l; dx++ {
		for dy := 0; dy < e && y0+dy < l; dy++ {
			dstBase := (dx*e + dy) * e
			for dz := 0; dz < e && z0+dz < l; dz++ {
				out[dstBase+dz] = s.dft.At(x0+dx, y0+dy, z0+dz)
			}
		}
	}
	return out
}

// Client is one node's demand-paged window onto the store. Not safe
// for concurrent use (each simulated node owns one).
type Client struct {
	store *Store
	model cluster.CostModel

	capacity int
	cache    map[brickID]*list.Element
	lru      *list.List // front = most recent

	// Hits and Misses count brick lookups.
	Hits, Misses int64
	// CommSecs is the simulated time the misses cost: one modeled
	// message of BrickBytes per miss.
	CommSecs float64
}

type cacheEntry struct {
	id   brickID
	data []complex128
}

// NewClient creates a client with the given cache capacity (in
// bricks); each miss adds the modeled one-sided fetch time of one brick
// to CommSecs.
func NewClient(s *Store, model cluster.CostModel, capacity int) (*Client, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("brick: cache capacity must be ≥ 1, got %d", capacity)
	}
	return &Client{
		store:    s,
		model:    model,
		capacity: capacity,
		cache:    map[brickID]*list.Element{},
		lru:      list.New(),
	}, nil
}

// brick returns the brick's data, fetching and caching on miss.
func (c *Client) brick(id brickID) []complex128 {
	if el, ok := c.cache[id]; ok {
		c.Hits++
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).data
	}
	c.Misses++
	c.CommSecs += c.model.MessageTime(c.store.BrickBytes())
	data := c.store.fetch(id)
	el := c.lru.PushFront(&cacheEntry{id: id, data: data})
	c.cache[id] = el
	for c.lru.Len() > c.capacity {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.cache, old.Value.(*cacheEntry).id)
	}
	return data
}

// at reads one lattice point through the cache.
func (c *Client) at(x, y, z int) complex128 {
	id := c.store.brickOf(x, y, z)
	data := c.brick(id)
	e := c.store.Edge
	return data[((x%e)*e+y%e)*e+z%e]
}

// Sample interpolates the spectrum at a continuous image-frequency
// point, exactly like fourier.VolumeDFT.Sample but through the brick
// cache.
func (c *Client) Sample(f geom.Vec3, interp fourier.Interpolation) complex128 {
	dft := c.store.dft
	if pad := dft.Pad(); pad != 1 {
		s := float64(pad)
		f = geom.Vec3{X: f.X * s, Y: f.Y * s, Z: f.Z * s}
	}
	l := dft.L
	ny := float64(l) / 2
	if f.X < -ny || f.X > ny || f.Y < -ny || f.Y > ny || f.Z < -ny || f.Z > ny {
		return 0
	}
	if interp == fourier.Nearest {
		return c.at(wrap(int(math.Round(f.X)), l), wrap(int(math.Round(f.Y)), l), wrap(int(math.Round(f.Z)), l))
	}
	x0, y0, z0 := int(math.Floor(f.X)), int(math.Floor(f.Y)), int(math.Floor(f.Z))
	fx, fy, fz := f.X-float64(x0), f.Y-float64(y0), f.Z-float64(z0)
	var sum complex128
	for dx := 0; dx <= 1; dx++ {
		wx := 1 - fx
		if dx == 1 {
			wx = fx
		}
		if wx == 0 {
			continue
		}
		xi := wrap(x0+dx, l)
		for dy := 0; dy <= 1; dy++ {
			wy := 1 - fy
			if dy == 1 {
				wy = fy
			}
			if wy == 0 {
				continue
			}
			yi := wrap(y0+dy, l)
			for dz := 0; dz <= 1; dz++ {
				wz := 1 - fz
				if dz == 1 {
					wz = fz
				}
				if wz == 0 {
					continue
				}
				zi := wrap(z0+dz, l)
				sum += complex(wx*wy*wz, 0) * c.at(xi, yi, zi)
			}
		}
	}
	return sum
}

func wrap(f, l int) int {
	f %= l
	if f < 0 {
		f += l
	}
	return f
}

// ExtractSlice computes a central section through the brick cache —
// functionally identical to fourier.VolumeDFT.ExtractSlice, but every
// lattice access pays the demand-paging cost model.
func (c *Client) ExtractSlice(o geom.Euler, rmax float64, interp fourier.Interpolation) *volume.CImage {
	l := c.store.dft.SrcL
	out := volume.NewCImage(l)
	m := o.Matrix()
	xAxis, yAxis := m.Col(0), m.Col(1)
	rmax = math.Min(rmax, float64(l)/2)
	ri := int(rmax)
	r2 := rmax * rmax
	for h := -ri; h <= ri; h++ {
		fh := float64(h)
		for k := -ri; k <= ri; k++ {
			fk := float64(k)
			if fh*fh+fk*fk > r2 {
				continue
			}
			f := xAxis.Scale(fh).Add(yAxis.Scale(fk))
			out.Data[wrap(h, l)*l+wrap(k, l)] = c.Sample(f, interp)
		}
	}
	return out
}

// HitRate returns the cache hit fraction observed so far.
func (c *Client) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
