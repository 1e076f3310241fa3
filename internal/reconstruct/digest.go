package reconstruct

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/volume"
)

// MapDigest returns a stable content digest of a reconstructed map:
// sha256 over the edge length followed by every voxel's float64 bit
// pattern, little-endian, in flat storage order. Two grids digest
// identically iff they are bit-identical, so the digest is the
// journal's proof that a resumed cycle reloaded exactly the map the
// crashed run wrote.
//
// The parallel kernel sums every voxel's contributions in view order,
// whichever slab worker owns the voxel, so parallel reconstructions
// digest identically across worker counts and across Insert and
// InsertViews (pinned by TestMapDigestStable). The serial
// //repro:oracle path sums in the same order but is NOT
// digest-identical to the parallel kernel once centres or CTFs are in
// play: it computes exp(i(θh+θk)) where the kernel multiplies separable
// exp(iθh)·exp(iθk) ramps, and evaluates the CTF per coefficient where
// the kernel reuses one value per radius h²+k², both of which differ in
// the last bit (the kernels agree to ≤1e-12, see
// TestShardedMatchesSerialOracle). Compare serial and parallel maps
// with a tolerance, not with this digest.
func MapDigest(g *volume.Grid) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.L))
	writeHash(h, buf[:])
	// Chunk the voxel stream so the hasher sees long runs instead of
	// one syscall-sized Write per voxel.
	const chunk = 512
	var block [chunk * 8]byte
	for base := 0; base < len(g.Data); base += chunk {
		n := len(g.Data) - base
		if n > chunk {
			n = chunk
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(block[i*8:], math.Float64bits(g.Data[base+i]))
		}
		writeHash(h, block[:n*8])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeHash feeds b into h.
func writeHash(h hash.Hash, b []byte) {
	h.Write(b) //replint:allow errsink a sha256 hash's Write cannot fail
}
