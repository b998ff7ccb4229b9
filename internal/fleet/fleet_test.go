package fleet

import (
	"errors"
	"math/rand"
	"testing"

	"cycloid/internal/ids"
)

// fake is a member that records its ID and the bootstraps it tried,
// and refuses joins through the addresses in refuse.
type fake struct {
	addr   string
	id     ids.CycloidID
	tried  []string
	refuse map[string]bool
}

func (f *fake) Addr() string { return f.addr }

func (f *fake) Join(bootstrap string) error {
	f.tried = append(f.tried, bootstrap)
	if f.refuse[bootstrap] {
		return errors.New("refused")
	}
	return nil
}

func bootFakes(t *testing.T, seed int64, dim, n int, refuse map[string]bool) []*fake {
	t.Helper()
	start := func(ord int, id ids.CycloidID) (*fake, error) {
		return &fake{addr: string(rune('A' + ord)), id: id, refuse: refuse}, nil
	}
	nodes, err := Boot(NewDealer(rand.New(rand.NewSource(seed)), ids.NewSpace(dim)), nil, n, start)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestBenchmarkTopology pins the membership Boot deals for the repo
// benchmark's seed, dimension and size, in start order. The root test
// TestLiveOverlayMatchesSimulator runs on this topology; a change to the
// draw, or to the order of the join choices interleaved with it, moves
// every seeded overlay and fails here first.
func TestBenchmarkTopology(t *testing.T) {
	want := []ids.CycloidID{
		{K: 1, A: 9}, {K: 5, A: 55}, {K: 2, A: 16}, {K: 2, A: 25}, {K: 0, A: 25}, {K: 0, A: 37},
		{K: 4, A: 43}, {K: 4, A: 15}, {K: 5, A: 29}, {K: 4, A: 33}, {K: 5, A: 63}, {K: 2, A: 5},
		{K: 4, A: 12}, {K: 3, A: 42}, {K: 0, A: 39}, {K: 1, A: 0}, {K: 0, A: 24}, {K: 4, A: 20},
		{K: 0, A: 27}, {K: 4, A: 19}, {K: 4, A: 29}, {K: 4, A: 13}, {K: 3, A: 13}, {K: 1, A: 35},
		{K: 0, A: 41}, {K: 3, A: 41}, {K: 1, A: 62}, {K: 3, A: 61}, {K: 1, A: 37}, {K: 2, A: 23},
		{K: 4, A: 17}, {K: 3, A: 52}, {K: 3, A: 57}, {K: 3, A: 56}, {K: 5, A: 61}, {K: 1, A: 46},
		{K: 1, A: 17}, {K: 1, A: 56}, {K: 5, A: 60}, {K: 3, A: 2}, {K: 2, A: 34}, {K: 4, A: 42},
		{K: 4, A: 39}, {K: 1, A: 24}, {K: 4, A: 8}, {K: 2, A: 12}, {K: 5, A: 36}, {K: 2, A: 18},
		{K: 1, A: 33}, {K: 3, A: 26}, {K: 2, A: 43}, {K: 3, A: 40}, {K: 1, A: 36}, {K: 5, A: 20},
		{K: 4, A: 34}, {K: 4, A: 36}, {K: 0, A: 13}, {K: 3, A: 27}, {K: 4, A: 22}, {K: 2, A: 26},
		{K: 4, A: 40}, {K: 2, A: 31}, {K: 2, A: 51}, {K: 0, A: 40},
	}
	nodes := bootFakes(t, 20040426, 6, 64, nil)
	for i, nd := range nodes {
		if nd.id != want[i] {
			t.Errorf("member %d: %v, want %v", i, nd.id, want[i])
		}
	}
}

// TestBootJoinFallback requires a refused join to move on to the next
// earlier member, wrapping around, without drawing again from the
// stream: the IDs dealt stay those of a fleet where every join is
// admitted.
func TestBootJoinFallback(t *testing.T) {
	clean := bootFakes(t, 5, 5, 12, nil)
	refused := bootFakes(t, 5, 5, 12, map[string]bool{"B": true})
	fellBack := 0
	for i := range clean {
		if clean[i].id != refused[i].id {
			t.Fatalf("member %d: %v with refusals, %v without", i, refused[i].id, clean[i].id)
		}
		if len(clean[i].tried) > 1 {
			t.Fatalf("member %d tried %v with every join admitted", i, clean[i].tried)
		}
		if tried := refused[i].tried; len(tried) > 1 {
			if len(tried) != 2 || tried[0] != "B" || tried[1] == "B" {
				t.Fatalf("member %d tried %v, want B then one other", i, tried)
			}
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no member drew the refusing bootstrap; pick another seed")
	}
}

// TestJoinRotates pins the fallback order: from first, wrapping.
func TestJoinRotates(t *testing.T) {
	boots := []*fake{{addr: "A"}, {addr: "B"}, {addr: "C"}, {addr: "D"}}
	m := &fake{refuse: map[string]bool{"C": true, "D": true}}
	if err := Join(m, boots, 6); err != nil {
		t.Fatal(err)
	}
	if got := m.tried; len(got) != 3 || got[0] != "C" || got[1] != "D" || got[2] != "A" {
		t.Fatalf("tried %v, want [C D A]", got)
	}
	none := &fake{refuse: map[string]bool{"A": true, "B": true, "C": true, "D": true}}
	if err := Join(none, boots, 0); err == nil || len(none.tried) != 4 {
		t.Fatalf("every member refused: err %v after %v", err, none.tried)
	}
}
