package codec

import (
	"encoding/binary"
	"errors"
	"math"
)

// The binary layout. Every integer is little-endian and fixed-width
// (stdlib encoding/binary); there are no varints, so field offsets are
// data-independent and the decoder does no byte-at-a-time work.
//
//	str    = u32 length | bytes
//	blob   = u32 length | bytes            (length 0 decodes as nil)
//	vblob  = u8 present | [str-style blob] (preserves nil vs empty)
//	entry  = u8 K | u32 A | str Addr
//	state  = entry Self | u8 presence bitmap | present entries in
//	         order cubical, cyclicL, cyclicS, insideL, insideR,
//	         outsideL, outsideR
//	items  = u32 n { str key | vblob V | u64 Ver | u64 Src }
//	route  = u32 Hops | u32 Phases[0..2] | u32 Timeouts | u8 Forced |
//	         entry Best | u32 Since | u32 n { str Avoid }
//
//	request  = u8 op code | [str op if 255]
//	           entry From
//	           u8 flags (1 Target, 2 GreedyOnly, 4 Propagate,
//	                     8 Subject, 16 Departed, 32 Origin, 64 Route)
//	           [entry Target] | str Key | blob Value | u64 Ver | u64 Src
//	           items Items
//	           u8 event code | [str event if 255]
//	           [entry Subject] | [state Departed] | [entry Origin]
//	           [route Route]
//	           i64 TTL | u32 DeadlineMs
//	           [u8 TraceFlags | u64 TraceHi | u64 TraceLo |
//	            u64 ParentSpan]                 (trace extension)
//
//	response = u8 flags (1 OK, 2 Done, 4 Found, 8 State, 16 Redirect,
//	                     32 Busy, 64 Route)
//	           str Err | u8 phase code | [str phase if 255]
//	           u32 nCandidates { entry } | [state State]
//	           blob Value | u64 Ver | items Items | [entry Redirect]
//	           u32 nReplicas { entry } | u32 RetryAfterMs | [route Route]
//
// The enumerated strings the protocol actually sends (op, event, phase)
// are one-byte codes; code 255 escapes to a length-prefixed string so
// any string value — however it got into the struct — round-trips.
// Optional []byte fields whose JSON tags say omitempty collapse empty
// to nil exactly like an encoding/json round trip does (the reference
// FuzzCodecDifferential compares against); Item.V has no omitempty and
// uses the vblob form to preserve the nil/empty distinction the same
// way JSON null/"" does.
//
// The trace extension is a trailing fixed-width block appended only
// when any trace-context field is nonzero. A decoder that stops at DeadlineMs
// (pre-tracing) ignores the tail; this decoder treats an exhausted
// frame as "no context" (all-zero trace fields), so both directions of
// the version skew interoperate and an absent context reads as
// unsampled.

// request field flags.
const (
	reqHasTarget = 1 << iota
	reqGreedyOnly
	reqPropagate
	reqHasSubject
	reqHasDeparted
	reqHasOrigin
	reqHasRoute
)

// response field flags.
const (
	respOK = 1 << iota
	respDone
	respFound
	respHasState
	respHasRedirect
	respBusy
	respHasRoute
)

const extCode = 255 // string-escape code for out-of-table enum values

var errLength = errors.New("codec: string exceeds binary length field")

// opCode/opName map the protocol's op strings onto one-byte codes.
func opCode(s string) uint8 {
	switch s {
	case "":
		return 0
	case "ping":
		return 1
	case "state":
		return 2
	case "step":
		return 3
	case "store":
		return 4
	case "replicate":
		return 5
	case "fetch":
		return 6
	case "handoff":
		return 7
	case "reclaim":
		return 8
	case "update":
		return 9
	}
	return extCode
}

var opNames = [...]string{"", "ping", "state", "step", "store", "replicate", "fetch", "handoff", "reclaim", "update"}

func eventCode(s string) uint8 {
	switch s {
	case "":
		return 0
	case "join":
		return 1
	case "leave":
		return 2
	}
	return extCode
}

var eventNames = [...]string{"", "join", "leave"}

func phaseCode(s string) uint8 {
	switch s {
	case "":
		return 0
	case "ascending":
		return 1
	case "descending":
		return 2
	case "traverse":
		return 3
	}
	return extCode
}

var phaseNames = [...]string{"", "ascending", "descending", "traverse"}

// ---- encoding ----

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint32 {
		return b, errLength
	}
	b = appendU32(b, uint32(len(s)))
	return append(b, s...), nil
}

func appendBlob(b, v []byte) ([]byte, error) {
	if len(v) > math.MaxUint32 {
		return b, errLength
	}
	b = appendU32(b, uint32(len(v)))
	return append(b, v...), nil
}

func appendEnum(b []byte, s string, code uint8) ([]byte, error) {
	b = append(b, code)
	if code == extCode {
		return appendStr(b, s)
	}
	return b, nil
}

func appendEntry(b []byte, e *Entry) ([]byte, error) {
	b = append(b, e.K)
	b = appendU32(b, e.A)
	return appendStr(b, e.Addr)
}

func appendState(b []byte, s *State) ([]byte, error) {
	b, err := appendEntry(b, &s.Self)
	if err != nil {
		return b, err
	}
	opts := [...]*Entry{s.Cubical, s.CyclicL, s.CyclicS, s.InsideL, s.InsideR, s.OutsideL, s.OutsideR}
	var bits uint8
	for i, e := range opts {
		if e != nil {
			bits |= 1 << i
		}
	}
	b = append(b, bits)
	for _, e := range opts {
		if e != nil {
			if b, err = appendEntry(b, e); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

func appendRoute(b []byte, r *RouteState) ([]byte, error) {
	b = appendU32(b, r.Hops)
	for _, p := range r.Phases {
		b = appendU32(b, p)
	}
	b = appendU32(b, r.Timeouts)
	b = append(b, r.Forced)
	b, err := appendEntry(b, &r.Best)
	if err != nil {
		return b, err
	}
	b = appendU32(b, r.Since)
	if len(r.Avoid) > math.MaxUint32 {
		return b, errLength
	}
	b = appendU32(b, uint32(len(r.Avoid)))
	for _, a := range r.Avoid {
		if b, err = appendStr(b, a); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendItems encodes an item batch (a handoff request, a reclaim reply).
func appendItems(b []byte, items map[string]Item) ([]byte, error) {
	if len(items) > math.MaxUint32 {
		return b, errLength
	}
	b = appendU32(b, uint32(len(items)))
	var err error
	for k, it := range items {
		if b, err = appendStr(b, k); err != nil {
			return b, err
		}
		if it.V == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			if b, err = appendBlob(b, it.V); err != nil {
				return b, err
			}
		}
		b = appendU64(b, it.Ver)
		b = appendU64(b, it.Src)
	}
	return b, nil
}

// AppendRequest appends the v2 binary encoding of r to buf.
func AppendRequest(buf []byte, r *Request) ([]byte, error) {
	b, err := appendEnum(buf, r.Op, opCode(r.Op))
	if err != nil {
		return buf, err
	}
	if b, err = appendEntry(b, &r.From); err != nil {
		return buf, err
	}
	var flags uint8
	if r.Target != nil {
		flags |= reqHasTarget
	}
	if r.GreedyOnly {
		flags |= reqGreedyOnly
	}
	if r.Propagate {
		flags |= reqPropagate
	}
	if r.Subject != nil {
		flags |= reqHasSubject
	}
	if r.Departed != nil {
		flags |= reqHasDeparted
	}
	if r.Origin != nil {
		flags |= reqHasOrigin
	}
	if r.Route != nil {
		flags |= reqHasRoute
	}
	b = append(b, flags)
	if r.Target != nil {
		if b, err = appendEntry(b, r.Target); err != nil {
			return buf, err
		}
	}
	if b, err = appendStr(b, r.Key); err != nil {
		return buf, err
	}
	if b, err = appendBlob(b, r.Value); err != nil {
		return buf, err
	}
	b = appendU64(b, r.Ver)
	b = appendU64(b, r.Src)
	if b, err = appendItems(b, r.Items); err != nil {
		return buf, err
	}
	if b, err = appendEnum(b, r.Event, eventCode(r.Event)); err != nil {
		return buf, err
	}
	if r.Subject != nil {
		if b, err = appendEntry(b, r.Subject); err != nil {
			return buf, err
		}
	}
	if r.Departed != nil {
		if b, err = appendState(b, r.Departed); err != nil {
			return buf, err
		}
	}
	if r.Origin != nil {
		if b, err = appendEntry(b, r.Origin); err != nil {
			return buf, err
		}
	}
	if r.Route != nil {
		if b, err = appendRoute(b, r.Route); err != nil {
			return buf, err
		}
	}
	b = appendU64(b, uint64(int64(r.TTL)))
	b = appendU32(b, r.DeadlineMs)
	if r.TraceHi|r.TraceLo|r.ParentSpan|uint64(r.TraceFlags) != 0 {
		b = append(b, r.TraceFlags)
		b = appendU64(b, r.TraceHi)
		b = appendU64(b, r.TraceLo)
		b = appendU64(b, r.ParentSpan)
	}
	return b, nil
}

// AppendResponse appends the v2 binary encoding of r to buf.
func AppendResponse(buf []byte, r *Response) ([]byte, error) {
	var flags uint8
	if r.OK {
		flags |= respOK
	}
	if r.Done {
		flags |= respDone
	}
	if r.Found {
		flags |= respFound
	}
	if r.State != nil {
		flags |= respHasState
	}
	if r.Redirect != nil {
		flags |= respHasRedirect
	}
	if r.Busy {
		flags |= respBusy
	}
	if r.Route != nil {
		flags |= respHasRoute
	}
	b := append(buf, flags)
	b, err := appendStr(b, r.Err)
	if err != nil {
		return buf, err
	}
	if b, err = appendEnum(b, r.Phase, phaseCode(r.Phase)); err != nil {
		return buf, err
	}
	if len(r.Candidates) > math.MaxUint32 {
		return buf, errLength
	}
	b = appendU32(b, uint32(len(r.Candidates)))
	for i := range r.Candidates {
		if b, err = appendEntry(b, &r.Candidates[i]); err != nil {
			return buf, err
		}
	}
	if r.State != nil {
		if b, err = appendState(b, r.State); err != nil {
			return buf, err
		}
	}
	if b, err = appendBlob(b, r.Value); err != nil {
		return buf, err
	}
	b = appendU64(b, r.Ver)
	if b, err = appendItems(b, r.Items); err != nil {
		return buf, err
	}
	if r.Redirect != nil {
		if b, err = appendEntry(b, r.Redirect); err != nil {
			return buf, err
		}
	}
	if len(r.Replicas) > math.MaxUint32 {
		return buf, errLength
	}
	b = appendU32(b, uint32(len(r.Replicas)))
	for i := range r.Replicas {
		if b, err = appendEntry(b, &r.Replicas[i]); err != nil {
			return buf, err
		}
	}
	b = appendU32(b, r.RetryAfterMs)
	if r.Route != nil {
		if b, err = appendRoute(b, r.Route); err != nil {
			return buf, err
		}
	}
	return b, nil
}

// ---- decoding ----

// reader is a bounds-checked cursor over one fully-read frame. The
// frame is already capped at the protocol's frame cap (p2p/pool's
// DefaultMaxFrame) before any of this runs, so every length field is
// validated against what actually arrived and nothing here allocates
// proportionally to a claimed — rather than received — size.
type reader struct {
	b   []byte
	off int
}

func (d *reader) u8() (uint8, error) {
	if d.off >= len(d.b) {
		return 0, ErrTruncated
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *reader) u32() (uint32, error) {
	if len(d.b)-d.off < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *reader) u64() (uint64, error) {
	if len(d.b)-d.off < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// bytes returns the next length-prefixed field aliased into the frame;
// callers must copy or intern before the frame buffer is reused.
func (d *reader) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(d.b)-d.off) < n {
		return nil, ErrTruncated
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v, nil
}

// str decodes a length-prefixed string through the interner, so
// recurring wire strings (addresses, hot keys) cost no allocation.
func (d *reader) str() (string, error) {
	v, err := d.bytes()
	if err != nil {
		return "", err
	}
	return Intern(v), nil
}

// blob decodes a length-prefixed byte field through CopyValue into
// dst's backing array or a fresh slice, never aliasing the frame.
func (d *reader) blob(dst []byte) ([]byte, error) {
	v, err := d.bytes()
	if err != nil {
		return nil, err
	}
	return CopyValue(dst, v), nil
}

// CopyValue copies v into dst's backing array when it has room for all
// of it, and into a fresh slice otherwise; an empty v yields nil
// (matching the omitempty JSON round trip). It is the one copy a value
// pays on its way out of a frame, or out of a store into a caller.
func CopyValue(dst, v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	if cap(dst) < len(v) {
		dst = nil
	}
	return append(dst[:0], v...)
}

func (d *reader) enum(names []string) (string, error) {
	c, err := d.u8()
	if err != nil {
		return "", err
	}
	if int(c) < len(names) {
		return names[c], nil
	}
	if c != extCode {
		return "", errors.New("codec: unknown enum code")
	}
	return d.str()
}

func (d *reader) entry(e *Entry) error {
	k, err := d.u8()
	if err != nil {
		return err
	}
	a, err := d.u32()
	if err != nil {
		return err
	}
	addr, err := d.str()
	if err != nil {
		return err
	}
	e.K, e.A, e.Addr = k, a, addr
	return nil
}

func (d *reader) entryPtr() (*Entry, error) {
	e := new(Entry)
	if err := d.entry(e); err != nil {
		return nil, err
	}
	return e, nil
}

func (d *reader) state() (*State, error) {
	s := new(State)
	if err := d.entry(&s.Self); err != nil {
		return nil, err
	}
	bits, err := d.u8()
	if err != nil {
		return nil, err
	}
	opts := [...]**Entry{&s.Cubical, &s.CyclicL, &s.CyclicS, &s.InsideL, &s.InsideR, &s.OutsideL, &s.OutsideR}
	for i, p := range opts {
		if bits&(1<<i) == 0 {
			continue
		}
		if *p, err = d.entryPtr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// route decodes a route state into *dst, its avoid list into dst.Avoid's
// backing array when that has room; an empty list decodes as nil.
func (d *reader) route(dst *RouteState) error {
	var err error
	if dst.Hops, err = d.u32(); err != nil {
		return err
	}
	for i := range dst.Phases {
		if dst.Phases[i], err = d.u32(); err != nil {
			return err
		}
	}
	if dst.Timeouts, err = d.u32(); err != nil {
		return err
	}
	if dst.Forced, err = d.u8(); err != nil {
		return err
	}
	if err = d.entry(&dst.Best); err != nil {
		return err
	}
	if dst.Since, err = d.u32(); err != nil {
		return err
	}
	n, err := d.u32()
	if err != nil {
		return err
	}
	// An encoded address is at least its 4-byte length.
	if n > uint32((len(d.b)-d.off)/4) {
		return ErrTruncated
	}
	avoid := dst.Avoid[:0]
	if n == 0 {
		avoid = nil
	}
	for i := uint32(0); i < n; i++ {
		a, err := d.str()
		if err != nil {
			return err
		}
		avoid = append(avoid, a)
	}
	dst.Avoid = avoid
	return nil
}

// routePtr decodes a route state into *into, or into a fresh one when
// into is nil.
func (d *reader) routePtr(into *RouteState) (*RouteState, error) {
	if into == nil {
		into = new(RouteState)
	}
	if err := d.route(into); err != nil {
		return nil, err
	}
	return into, nil
}

// minEntrySize bounds slice preallocation from claimed counts: an
// encoded entry is at least K (1) + A (4) + empty Addr (4) bytes.
const minEntrySize = 9

// entries decodes a counted entry list into dst's backing array when
// it has room for all of them, and into a fresh slice otherwise.
func (d *reader) entries(dst []Entry) ([]Entry, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if max := uint32((len(d.b) - d.off) / minEntrySize); n > max {
		return nil, ErrTruncated
	}
	var out []Entry
	if int(n) <= cap(dst) {
		out = dst[:n]
	} else {
		out = make([]Entry, n)
	}
	for i := range out {
		if err := d.entry(&out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// items decodes an item batch, nil when empty.
func (d *reader) items() (map[string]Item, error) {
	n, err := d.u32()
	if err != nil || n == 0 {
		return nil, err
	}
	// Each encoded item is at least 21 bytes (key 4, present 1, ver+src
	// 16); cap the map preallocation by what arrived.
	if max := uint32((len(d.b) - d.off) / 21); n > max {
		return nil, ErrTruncated
	}
	items := make(map[string]Item, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		var it Item
		present, err := d.u8()
		if err != nil {
			return nil, err
		}
		if present != 0 {
			v, err := d.bytes()
			if err != nil {
				return nil, err
			}
			it.V = append([]byte{}, v...) // non-nil even when empty
		}
		if it.Ver, err = d.u64(); err != nil {
			return nil, err
		}
		if it.Src, err = d.u64(); err != nil {
			return nil, err
		}
		items[k] = it
	}
	return items, nil
}

// DecodeRequest decodes one v2 binary request payload into r. Decoded
// strings and byte slices never alias data, so the caller may reuse the
// buffer immediately, and each byte slice (Value, every Item's V) is a
// fresh allocation no one else holds: the receiver owns it and may
// keep it, in its store say, without copying it again. A Target or
// Route the payload carries decodes into the struct r.Target or r.Route
// already points at, when it does, so a caller that owns that storage
// decodes a step without allocating; an absent one leaves the field nil.
func DecodeRequest(data []byte, r *Request) error {
	d := reader{b: data}
	var err error
	if r.Op, err = d.enum(opNames[:]); err != nil {
		return err
	}
	if err = d.entry(&r.From); err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	r.GreedyOnly = flags&reqGreedyOnly != 0
	r.Propagate = flags&reqPropagate != 0
	if flags&reqHasTarget == 0 {
		r.Target = nil
	} else {
		if r.Target == nil {
			r.Target = new(Entry)
		}
		if err = d.entry(r.Target); err != nil {
			return err
		}
	}
	if r.Key, err = d.str(); err != nil {
		return err
	}
	if r.Value, err = d.blob(nil); err != nil {
		return err
	}
	if r.Ver, err = d.u64(); err != nil {
		return err
	}
	if r.Src, err = d.u64(); err != nil {
		return err
	}
	if r.Items, err = d.items(); err != nil {
		return err
	}
	if r.Event, err = d.enum(eventNames[:]); err != nil {
		return err
	}
	if flags&reqHasSubject != 0 {
		if r.Subject, err = d.entryPtr(); err != nil {
			return err
		}
	}
	if flags&reqHasDeparted != 0 {
		if r.Departed, err = d.state(); err != nil {
			return err
		}
	}
	if flags&reqHasOrigin != 0 {
		if r.Origin, err = d.entryPtr(); err != nil {
			return err
		}
	}
	if flags&reqHasRoute == 0 {
		r.Route = nil
	} else if r.Route, err = d.routePtr(r.Route); err != nil {
		return err
	}
	ttl, err := d.u64()
	if err != nil {
		return err
	}
	r.TTL = int(int64(ttl))
	if r.DeadlineMs, err = d.u32(); err != nil {
		return err
	}
	if d.off == len(d.b) {
		return nil // no trace extension: pre-tracing peer, unsampled
	}
	if r.TraceFlags, err = d.u8(); err != nil {
		return err
	}
	if r.TraceHi, err = d.u64(); err != nil {
		return err
	}
	if r.TraceLo, err = d.u64(); err != nil {
		return err
	}
	r.ParentSpan, err = d.u64()
	return err
}

// DecodeResponse decodes one v2 binary response payload into r. Like
// DecodeRequest, the result shares no memory with data. Two fields
// decode into caller storage when it has room: the candidates into
// r.Candidates' backing array, and the value into r.Value's backing
// array (see CopyValue), so a fetch reply lands straight in the buffer
// its reader reads into. Either field gets a fresh slice when its
// buffer is too short, and an empty value decodes to nil. A Route
// decodes into the struct r.Route already points at, like a request's,
// so the origin decodes a route's answer without allocating.
func DecodeResponse(data []byte, r *Response) error {
	d := reader{b: data}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	r.OK = flags&respOK != 0
	r.Done = flags&respDone != 0
	r.Found = flags&respFound != 0
	r.Busy = flags&respBusy != 0
	if r.Err, err = d.str(); err != nil {
		return err
	}
	if r.Phase, err = d.enum(phaseNames[:]); err != nil {
		return err
	}
	if r.Candidates, err = d.entries(r.Candidates); err != nil {
		return err
	}
	if flags&respHasState != 0 {
		if r.State, err = d.state(); err != nil {
			return err
		}
	}
	if r.Value, err = d.blob(r.Value); err != nil {
		return err
	}
	if r.Ver, err = d.u64(); err != nil {
		return err
	}
	if r.Items, err = d.items(); err != nil {
		return err
	}
	if flags&respHasRedirect != 0 {
		if r.Redirect, err = d.entryPtr(); err != nil {
			return err
		}
	}
	if r.Replicas, err = d.entries(nil); err != nil {
		return err
	}
	if r.RetryAfterMs, err = d.u32(); err != nil {
		return err
	}
	if flags&respHasRoute == 0 {
		r.Route = nil
	} else if r.Route, err = d.routePtr(r.Route); err != nil {
		return err
	}
	return nil
}

// StepRequest reports whether an encoded request is a step, from its
// op code alone.
func StepRequest(data []byte) bool { return len(data) > 0 && data[0] == opCode("step") }

// BusyReply reports whether an encoded response is a load-shed reply,
// without decoding it: a forwarder relays every other reply unread.
func BusyReply(data []byte) bool { return len(data) > 0 && data[0]&respBusy != 0 }
