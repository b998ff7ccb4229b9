package chaosrunner

import (
	"fmt"
	"math/rand"
	"sort"

	"cycloid/internal/cycloid"
	"cycloid/internal/ids"
	"cycloid/p2p"
)

// Oracle builds the simulator's converged overlay over a membership: the
// routing state Section 3.1 assigns every member (Network.State), and the
// lookups those tables route (Network.Lookup). It is the legality
// predicate every live stabilization round drives toward.
func Oracle(dim int, members []ids.CycloidID) (*cycloid.Network, error) {
	net, err := cycloid.New(cycloid.Config{Dim: dim, LeafHalf: 1})
	if err != nil {
		return nil, err
	}
	sorted := append([]ids.CycloidID(nil), members...)
	space := net.Space()
	sort.Slice(sorted, func(i, j int) bool { return space.Linear(sorted[i]) < space.Linear(sorted[j]) })
	rng := rand.New(rand.NewSource(1))
	for _, id := range sorted {
		if err := net.JoinAt(id, rng); err != nil {
			return nil, fmt.Errorf("chaosrunner: oracle: %v: %w", id, err)
		}
	}
	net.BuildAll()
	return net, nil
}

// Deviations lists the slots of a live node's routing state that differ
// from the oracle's state for that node. The cubical slot may instead
// hold any other member with cyclic index k-1 in the flipped block:
// Section 3.1 leaves the low bits of the cubical neighbour arbitrary.
func Deviations(oracle *cycloid.Network, st *p2p.WireState) []string {
	self := ids.CycloidID{K: st.Self.K, A: st.Self.A}
	want, ok := oracle.State(self)
	if !ok {
		return []string{fmt.Sprintf("%v is not a member", self)}
	}
	first := func(l []ids.CycloidID) *ids.CycloidID {
		if len(l) == 0 {
			return nil
		}
		return &l[0]
	}
	slots := []struct {
		name string
		got  *p2p.WireEntry
		want *ids.CycloidID
	}{
		{"cubical", st.Cubical, want.Cubical},
		{"cyclicL", st.CyclicL, want.CyclicL},
		{"cyclicS", st.CyclicS, want.CyclicS},
		{"insideL", st.InsideL, first(want.InsideL)},
		{"insideR", st.InsideR, first(want.InsideR)},
		{"outsideL", st.OutsideL, first(want.OutsideL)},
		{"outsideR", st.OutsideR, first(want.OutsideR)},
	}
	var out []string
	for _, s := range slots {
		var got *ids.CycloidID
		if s.got != nil {
			got = &ids.CycloidID{K: s.got.K, A: s.got.A}
		}
		if sameID(got, s.want) || s.name == "cubical" && inFlippedBlock(oracle, self, got) {
			continue
		}
		out = append(out, fmt.Sprintf("%s holds %s, want %s", s.name, idStr(got), idStr(s.want)))
	}
	return out
}

// inFlippedBlock reports whether id is a member with cyclic index k-1
// whose cubical index lies in node (k, a)'s flipped block
// a_{d-1}…a_{k+1} ¬a_k x…x.
func inFlippedBlock(oracle *cycloid.Network, self ids.CycloidID, id *ids.CycloidID) bool {
	if id == nil || self.K == 0 || id.K != self.K-1 || !oracle.Contains(oracle.Space().Linear(*id)) {
		return false
	}
	block := ^(uint32(1)<<self.K - 1)
	return id.A&block == (self.A^1<<self.K)&block
}

func sameID(a, b *ids.CycloidID) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func idStr(id *ids.CycloidID) string {
	if id == nil {
		return "-"
	}
	return id.String()
}
