package codec

// The wire envelope types, encoded with the hand-rolled fixed-width
// layout in binary.go. The p2p package aliases them (WireEntry =
// codec.Entry, ...), so the overlay code constructs and consumes the
// wire structs directly. The JSON struct tags serve one reader:
// FuzzCodecDifferential, which uses encoding/json as the reference
// round trip.

// Entry is an overlay node reference on the wire.
type Entry struct {
	K    uint8  `json:"k"`
	A    uint32 `json:"a"`
	Addr string `json:"addr"`
}

// Item is one stored value with its replication metadata: the per-key
// logical version and the linear ID of the node that assigned it, for
// last-writer-wins conflict resolution at the receiver.
type Item struct {
	V   []byte `json:"v"`
	Ver uint64 `json:"ver"`
	Src uint64 `json:"src,omitempty"`
}

// State is a node's full routing state on the wire, the payload the
// join procedure derives the newcomer's leaf sets from.
type State struct {
	Self     Entry  `json:"self"`
	Cubical  *Entry `json:"cubical,omitempty"`
	CyclicL  *Entry `json:"cyclicL,omitempty"`
	CyclicS  *Entry `json:"cyclicS,omitempty"`
	InsideL  *Entry `json:"insideL,omitempty"`
	InsideR  *Entry `json:"insideR,omitempty"`
	OutsideL *Entry `json:"outsideL,omitempty"`
	OutsideR *Entry `json:"outsideR,omitempty"`
}

// Request is the single message type; Op selects the operation.
type Request struct {
	Op   string `json:"op"`
	From Entry  `json:"from"`

	// step
	Target     *Entry `json:"target,omitempty"`
	GreedyOnly bool   `json:"greedyOnly,omitempty"`

	// store / fetch / replicate
	Key   string `json:"key,omitempty"`
	Value []byte `json:"value,omitempty"`
	Ver   uint64 `json:"ver,omitempty"` // replicate: the copy's version
	Src   uint64 `json:"src,omitempty"` // replicate: version tie-breaker

	// handoff
	Items map[string]Item `json:"items,omitempty"`

	// update (membership notification)
	Event     string `json:"event,omitempty"` // "join" or "leave"
	Subject   *Entry `json:"subject,omitempty"`
	Departed  *State `json:"departed,omitempty"` // leaver's state, for splicing
	Propagate bool   `json:"propagate,omitempty"`
	Origin    *Entry `json:"origin,omitempty"`
	TTL       int    `json:"ttl,omitempty"`

	// DeadlineMs is the caller's remaining deadline budget in
	// milliseconds at send time (relative, because peer clocks are not
	// synchronized). 0 means no deadline. Servers use it to bound
	// admission-queue waits and to drop requests whose caller has
	// already given up instead of doing dead work.
	DeadlineMs uint32 `json:"deadlineMs,omitempty"`

	// Trace context: the distributed-tracing correlation state,
	// propagated the same way DeadlineMs is. TraceHi/TraceLo form a
	// 128-bit trace ID, ParentSpan is the caller's span for this
	// exchange, and TraceFlags packs the sampling bit (bit 0) with a
	// 7-bit hop budget (bits 1-7) bounding cascade depth. All-zero
	// means "no trace context": requests from pre-tracing peers decode
	// to exactly that, so absent context reads as unsampled.
	TraceHi    uint64 `json:"traceHi,omitempty"`
	TraceLo    uint64 `json:"traceLo,omitempty"`
	ParentSpan uint64 `json:"parentSpan,omitempty"`
	TraceFlags uint8  `json:"traceFlags,omitempty"`
}

// Response is the single reply type.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	// step
	Phase      string  `json:"phase,omitempty"`
	Candidates []Entry `json:"candidates,omitempty"`
	Done       bool    `json:"done,omitempty"`

	// state
	State *State `json:"state,omitempty"`

	// fetch
	Value []byte `json:"value,omitempty"`
	Found bool   `json:"found,omitempty"`
	Ver   uint64 `json:"ver,omitempty"` // fetch/replicate: receiver's stored version

	// reclaim: the items the requesting newcomer is now responsible for
	Items map[string]Item `json:"items,omitempty"`

	// store/replicate rejection: where the receiver believes the key
	// belongs, so the sender can follow instead of stranding the value.
	Redirect *Entry `json:"redirect,omitempty"`
	// replicate: the receiver's current replica set (itself plus its
	// replica targets); senders use it to garbage-collect copies they
	// should no longer hold.
	Replicas []Entry `json:"replicas,omitempty"`

	// Busy marks a load-shed rejection: the receiver is alive but over
	// its admission cap. RetryAfterMs is its hint for how long the
	// sender should back off (current queue depth × observed service
	// time). Clients treat busy as a soft demotion — route around this
	// round — never as a crash signal.
	Busy         bool   `json:"busy,omitempty"`
	RetryAfterMs uint32 `json:"retryAfterMs,omitempty"`
}

// frameSlack is SizeHint's allowance for a message's fixed-width fields
// and short strings — everything but its bulk payload.
const frameSlack = 512

// SizeHint returns a buffer capacity that holds the request's binary
// encoding: its bulk payload (key and value) plus a fixed allowance for
// the rest. Encoders size buffers by it so a chunk-carrying frame comes
// from the right size class up front instead of growing into it.
func (r *Request) SizeHint() int { return len(r.Key) + len(r.Value) + frameSlack }

// SizeHint is Request.SizeHint for a reply: a fetched value plus a
// fixed allowance for the rest.
func (r *Response) SizeHint() int { return len(r.Value) + frameSlack }
