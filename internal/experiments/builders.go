// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4). Each experiment takes a seed, builds the DHTs it
// compares, drives the paper's workload, and returns structured rows that
// cmd/cycloid-bench renders in the layout the paper reports.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"cycloid/internal/chord"
	"cycloid/internal/cycloid"
	"cycloid/internal/koorde"
	"cycloid/internal/overlay"
	"cycloid/internal/viceroy"
)

// Churner is the full capability set the dynamic experiments need.
type Churner = overlay.Churner

// DHTNames lists the systems every comparison covers, in the paper's
// presentation order.
var DHTNames = []string{"cycloid-7", "cycloid-11", "viceroy", "chord", "koorde"}

// dhtsIn returns the names of the DHTs m holds results for, in
// DHTNames order.
func dhtsIn[V any](m map[string]V) []string {
	var out []string
	for _, name := range DHTNames {
		if _, ok := m[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// ringBitsFor returns the smallest m with 2^m >= n.
func ringBitsFor(n int) int {
	m := 2
	for (uint64(1) << uint(m)) < uint64(n) {
		m++
	}
	return m
}

// BuildCycloid builds a converged n-node Cycloid of the smallest dimension
// whose ID space holds n nodes; when n fills the space exactly the network
// is the complete CCC, the configuration Figures 5-7 use.
func BuildCycloid(n, leafHalf int, seed int64) (*cycloid.Network, error) {
	d := cycloid.DimForNodes(n)
	cfg := cycloid.Config{Dim: d, LeafHalf: leafHalf}
	if uint64(n) == uint64(d)<<uint(d) {
		return cycloid.NewComplete(cfg)
	}
	return cycloid.NewRandom(cfg, n, rand.New(rand.NewSource(seed)))
}

// BuildCycloidIn builds a converged n-node Cycloid in a fixed-dimension
// space (for the sparsity and key-distribution experiments, which hold the
// ID space at 2048 positions while varying occupancy).
func BuildCycloidIn(dim, n, leafHalf int, seed int64) (*cycloid.Network, error) {
	return cycloid.NewRandom(cycloid.Config{Dim: dim, LeafHalf: leafHalf}, n, rand.New(rand.NewSource(seed)))
}

// BuildChord builds a converged n-node Chord on the smallest ring holding n.
func BuildChord(n int, seed int64) (*chord.Network, error) {
	return BuildChordIn(ringBitsFor(n), n, seed)
}

// BuildChordIn builds n Chord nodes on a 2^bits ring.
func BuildChordIn(bits, n int, seed int64) (*chord.Network, error) {
	return chord.NewRandom(chord.Config{Bits: bits, SuccessorList: 3}, n, rand.New(rand.NewSource(seed)))
}

// BuildKoorde builds a converged n-node Koorde with the paper's 7-entry
// configuration (1 de Bruijn pointer, 3 backups, 3 successors).
func BuildKoorde(n int, seed int64) (*koorde.Network, error) {
	return BuildKoordeIn(ringBitsFor(n), n, seed)
}

// BuildKoordeIn builds n Koorde nodes on a 2^bits ring.
func BuildKoordeIn(bits, n int, seed int64) (*koorde.Network, error) {
	return koorde.NewRandom(koorde.Config{Bits: bits, Successors: 3, Backups: 3}, n, rand.New(rand.NewSource(seed)))
}

// BuildViceroy builds a converged n-node Viceroy with n as its own size
// estimate.
func BuildViceroy(n int, seed int64) (*viceroy.Network, error) {
	return viceroy.NewRandom(viceroy.Config{ExpectedNodes: n}, n, rand.New(rand.NewSource(seed)))
}

// Build constructs the named DHT with n nodes (ID spaces sized to fit n).
func Build(name string, n int, seed int64) (Churner, error) {
	switch name {
	case "cycloid-7":
		return BuildCycloid(n, 1, seed)
	case "cycloid-11":
		return BuildCycloid(n, 2, seed)
	case "viceroy":
		return BuildViceroy(n, seed)
	case "chord":
		return BuildChord(n, seed)
	case "koorde":
		return BuildKoorde(n, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown DHT %q", name)
	}
}

// BuildIn constructs the named DHT with n nodes in an ID space of exactly
// `space` positions (2048 in the paper's Sections 4.2-4.5). The Cycloid
// dimension d satisfies d*2^d = space; Chord and Koorde use log2(space)
// bits. Viceroy's [0,1) space cannot be sized and stays at full
// resolution, exactly the paper's observation in Section 4.5.
func BuildIn(name string, space uint64, n int, seed int64) (Churner, error) {
	switch name {
	case "cycloid-7", "cycloid-11":
		half := 1
		if name == "cycloid-11" {
			half = 2
		}
		d := dimForSpace(space)
		if d < 0 {
			return nil, fmt.Errorf("experiments: %d is not d*2^d for any d", space)
		}
		return BuildCycloidIn(d, n, half, seed)
	case "viceroy":
		return BuildViceroy(n, seed)
	case "chord":
		return BuildChordIn(bitsForSpace(space), n, seed)
	case "koorde":
		return BuildKoordeIn(bitsForSpace(space), n, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown DHT %q", name)
	}
}

// dimForSpace returns d with d*2^d == space, or -1.
func dimForSpace(space uint64) int {
	for d := 2; d <= 30; d++ {
		if uint64(d)<<uint(d) == space {
			return d
		}
	}
	return -1
}

// bitsForSpace returns ceil(log2(space)).
func bitsForSpace(space uint64) int {
	return int(math.Ceil(math.Log2(float64(space))))
}
