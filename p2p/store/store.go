// Package store is the pluggable key/value storage layer behind a p2p
// node's replicated store. Two stdlib-only backends implement the same
// Store interface: Memory, the original in-process map, and Durable, an
// append-only write-ahead log plus periodic snapshot + segment
// compaction, so a rebooted node comes back with every acknowledged
// write intact (see durable.go, wal.go).
//
// Concurrency contract: the node serializes all data operations (Get,
// Put, Delete, Len, Range, SetPromoted) under its own store lock —
// implementations do not need to make those safe against each other.
// Sync and Close, by contrast, run on acknowledgement paths outside the
// node lock and MUST be safe to call concurrently with data operations
// and with each other; Durable uses this to batch many concurrent Put
// acknowledgements into one fsync. Durable also writes its snapshots
// and removes old segments on a compaction goroutine of its own, so a
// Put that crosses the compaction threshold holds the node's lock only
// for the segment roll and the snapshot's encoding; Close and Compact
// wait for that goroutine.
package store

// Item is one stored value with its replication metadata: a per-key
// logical version and the linear ID of the node that assigned it, for
// last-writer-wins conflict resolution across replicas.
type Item struct {
	Val []byte
	Ver uint64
	Src uint64
	// Promoted is local-only bookkeeping: set once the holding node
	// counted the copy as a crash promotion (it owns a key some other
	// node wrote), so repeated anti-entropy passes do not recount it.
	// Never serialized and never persisted — a rebooted node recounts
	// promotions it still merits.
	Promoted bool
}

// Newer reports whether a should replace b under last-writer-wins:
// higher logical version first, larger writer ID on ties.
func Newer(a, b Item) bool {
	if a.Ver != b.Ver {
		return a.Ver > b.Ver
	}
	return a.Src > b.Src
}

// Store is the node-facing storage contract. See the package comment
// for the concurrency contract.
type Store interface {
	// Get returns the item stored under key.
	Get(key string) (Item, bool)
	// Put stores an item, replacing any existing one. The caller has
	// already applied last-writer-wins; Put is unconditional.
	Put(key string, it Item)
	// Delete removes a key. Durable backends record a tombstone so the
	// deletion survives restart.
	Delete(key string)
	// Len returns the number of live keys.
	Len() int
	// Range calls f for every key in unspecified order until f returns
	// false. f must not mutate the store.
	Range(f func(key string, it Item) bool)
	// SetPromoted marks the copy under key as promotion-counted, if it
	// still exists at exactly the given version and is not yet marked.
	// It reports whether the mark transitioned. The mark is memory-only
	// even on durable backends.
	SetPromoted(key string, ver uint64) bool
	// Sync makes every preceding Put/Delete durable before returning.
	// The acknowledgement path calls it after applying a write and
	// before answering the client, so an acked write is on disk before
	// the wire response. No-op for memory backends.
	Sync() error
	// Close flushes and releases the backend. Data operations after
	// Close are undefined; Sync after Close reports an error if
	// unflushed writes were outstanding.
	Close() error
}

// Memory is the original in-process map backend: no durability, no-op
// Sync. The zero value is not usable; call NewMemory.
type Memory struct {
	m map[string]Item
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{m: make(map[string]Item)} }

func (s *Memory) Get(key string) (Item, bool) { it, ok := s.m[key]; return it, ok }
func (s *Memory) Put(key string, it Item)     { s.m[key] = it }
func (s *Memory) Delete(key string)           { delete(s.m, key) }
func (s *Memory) Len() int                    { return len(s.m) }

func (s *Memory) Range(f func(key string, it Item) bool) {
	for k, it := range s.m {
		if !f(k, it) {
			return
		}
	}
}

func (s *Memory) SetPromoted(key string, ver uint64) bool {
	cur, ok := s.m[key]
	if !ok || cur.Ver != ver || cur.Promoted {
		return false
	}
	cur.Promoted = true
	s.m[key] = cur
	return true
}

func (s *Memory) Sync() error  { return nil }
func (s *Memory) Close() error { return nil }
