package loadgen

import (
	"context"
	"crypto/sha256"
	"io"
	"slices"
	"sync"
	"time"

	"cycloid/internal/telemetry"
	"cycloid/p2p"
	"cycloid/p2p/blob"
)

// Step is one planned client operation.
type Step struct {
	Op    Op
	Node  *p2p.Node // where the operation originates
	Key   string    // KV key or blob name
	Value []byte    // payload of a Put or BlobPut
}

// Exec issues operations and records each one in History. It is the
// only place a harness's client traffic is issued.
type Exec struct {
	History *History
	Timeout time.Duration // per-operation deadline; 0 for none
	Blob    blob.Options  // blob operations' geometry
	// Bitrate paces blob reads like a player, in KiB/s: chunk i is
	// wanted one chunk-duration after chunk i-1's playout, and a late
	// chunk counts a rebuffer and rebases the playout clock by its
	// lateness. 0 reads as fast as the overlay serves.
	Bitrate int

	chunkLat *telemetry.Histogram // optional per-chunk read latency
}

// Do issues one operation as client and records it.
func (x *Exec) Do(client int, s Step) Record {
	ctx := context.Background()
	if x.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, x.Timeout)
		defer cancel()
	}
	rec := Record{Client: client, Op: s.Op, Origin: s.Node.Addr(), Key: s.Key, Value: s.Value}
	var rt p2p.Route
	began := time.Now()
	rec.Invoke = x.History.tick()
	switch s.Op {
	case OpPut:
		rec.Err = s.Node.PutContext(ctx, s.Key, s.Value)
	case OpGet:
		rec.Value, rt, rec.Err = s.Node.GetContext(ctx, s.Key)
	case OpLookup:
		rt, rec.Err = s.Node.LookupContext(ctx, s.Key)
	case OpBlobPut, OpBlobRead:
		data := s.Value
		bs, err := blob.New(s.Node, x.Blob)
		switch {
		case err != nil:
		case s.Op == OpBlobPut:
			err = bs.Put(ctx, s.Key, data)
		default:
			data, err = bs.Get(ctx, s.Key)
		}
		sum := sha256.Sum256(data)
		rec.Value, rec.Err = sum[:], err
	case OpBlobGet:
		rec.Value, rec.Err = x.play(ctx, s, &rec)
	}
	rec.Return = x.History.tick()
	rec.Latency = time.Since(began)
	rec.Ver, rec.Timeouts, rec.TraceID, rec.Terminal = rt.Ver, rt.Timeouts, rt.TraceID, rt.Addr
	x.History.add(rec)
	return rec
}

// play is one viewer session: sequential reads through the blob
// layer's prefetching reader, paced by Bitrate. It returns the digest
// of the bytes read.
func (x *Exec) play(ctx context.Context, s Step, rec *Record) ([]byte, error) {
	bs, err := blob.New(s.Node, x.Blob)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rd, err := bs.Open(ctx, s.Key)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	var chunkDur time.Duration
	if x.Bitrate > 0 {
		chunkDur = time.Duration(float64(bs.ChunkSize()) / float64(x.Bitrate<<10) * float64(time.Second))
	}
	sum := sha256.New()
	buf := make([]byte, bs.ChunkSize())
	var playStart time.Time
	for seq := 0; ; seq++ {
		if seq > 0 && chunkDur > 0 {
			if wait := time.Until(playStart.Add(time.Duration(seq-1) * chunkDur)); wait > 0 {
				time.Sleep(wait)
			}
		}
		c0 := time.Now()
		n, err := io.ReadFull(rd, buf)
		if err == io.EOF {
			break
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		now := time.Now()
		if x.chunkLat != nil {
			x.chunkLat.Observe(now.Sub(c0).Microseconds())
		}
		sum.Write(buf[:n])
		rec.Chunks++
		if seq == 0 {
			rec.TTFB = now.Sub(t0)
			playStart = now
		} else if late := now.Sub(playStart.Add(time.Duration(seq) * chunkDur)); chunkDur > 0 && late > 0 {
			rec.Rebuffers++
			bs.RecordRebuffer()
			playStart = playStart.Add(late)
		}
		if err == io.ErrUnexpectedEOF {
			break
		}
	}
	return sum.Sum(nil), nil
}

// Start runs a plan, one goroutine per client issuing its steps in
// order, and returns a wait function that yields the plan's records
// client by client.
func (x *Exec) Start(plan [][]Step) (wait func() []Record) {
	out := make([][]Record, len(plan))
	var wg sync.WaitGroup
	for c, steps := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range steps {
				out[c] = append(out[c], x.Do(c, s))
			}
		}()
	}
	return func() []Record {
		wg.Wait()
		return slices.Concat(out...)
	}
}

// Failed returns the records whose operation failed.
func Failed(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
