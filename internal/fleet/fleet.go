// Package fleet boots in-process overlays the way the paper's
// evaluation builds them (Section 4): distinct IDs drawn from a seeded
// space, members joined one at a time, then stabilized. Besides the
// standard library it imports only internal/ids, so package p2p's own
// tests can use it; callers start members themselves, keeping their own
// config, transport and data directory.
package fleet

import (
	"fmt"
	"math/rand"

	"cycloid/internal/ids"
)

// Member is what booting needs of a started node.
type Member interface {
	Addr() string
	Join(bootstrap string) error
}

// Dealer deals distinct IDs of one space from a seeded stream.
type Dealer struct {
	rng   *rand.Rand
	space ids.Space
	taken map[uint64]bool
}

// NewDealer returns a dealer drawing from rng. Boot also takes each
// joiner's bootstrap from rng, interleaved with the draws.
func NewDealer(rng *rand.Rand, space ids.Space) *Dealer {
	return &Dealer{rng: rng, space: space, taken: make(map[uint64]bool)}
}

// Next draws until an ID not dealt before comes up.
func (d *Dealer) Next() ids.CycloidID {
	for {
		if v := uint64(d.rng.Int63n(int64(d.space.Size()))); !d.taken[v] {
			d.taken[v] = true
			return d.space.FromLinear(v)
		}
	}
}

// Boot starts n more members after nodes and returns the grown slice.
// Member ord gets the dealer's next ID, is started by start and, unless
// it is the first, joins through nodes[rng.Intn(ord)] (see Join). On
// error the result still holds every member started, for the caller to
// close.
func Boot[M Member](d *Dealer, nodes []M, n int, start func(ord int, id ids.CycloidID) (M, error)) ([]M, error) {
	for end := len(nodes) + n; len(nodes) < end; {
		ord, id := len(nodes), d.Next()
		m, err := start(ord, id)
		if err != nil {
			return nodes, fmt.Errorf("start member %d %v: %w", ord, id, err)
		}
		nodes = append(nodes, m)
		if ord > 0 {
			if err := Join(m, nodes[:ord], d.rng.Intn(ord)); err != nil {
				return nodes, fmt.Errorf("join member %d %v: %w", ord, id, err)
			}
		}
	}
	return nodes, nil
}

// Join joins m through boots[first], and while that is refused through
// the boots after it in turn, wrapping around. It returns the last
// refusal if none admits m, and nil for no boots.
func Join[M Member](m M, boots []M, first int) (err error) {
	for i := range boots {
		if err = m.Join(boots[(first+i)%len(boots)].Addr()); err == nil {
			return nil
		}
	}
	return err
}

// Stabilize runs sweeps rounds of Stabilize over every node in order.
func Stabilize[S interface{ Stabilize() }](nodes []S, sweeps int) {
	for r := 0; r < sweeps; r++ {
		for _, nd := range nodes {
			nd.Stabilize()
		}
	}
}
