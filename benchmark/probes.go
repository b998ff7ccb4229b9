package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cycloid/internal/cycloid"
	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p"
	"cycloid/p2p/blob"
	"cycloid/p2p/codec"
	"cycloid/p2p/memnet"
	"cycloid/p2p/pool"
)

// The probes are microloops over each layer's public functions, run
// once per traced invocation. They price a layer on its own, so that a
// change in an end-to-end number can be traced to the layer that moved.
// They use fixed inputs: the traffic seed does not reach them.

// perCallNS times n calls of f.
func perCallNS(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

func entryID(e *codec.Entry) *ids.CycloidID {
	if e == nil {
		return nil
	}
	return &ids.CycloidID{K: e.K, A: e.A}
}

func leaf(e *codec.Entry) []ids.CycloidID {
	if e == nil {
		return nil
	}
	return []ids.CycloidID{{K: e.K, A: e.A}}
}

// probeDecide prices the routing decision on the fleet's real routing
// states, over a fixed walk of targets.
func probeDecide(fl *fleet, l metrics) {
	space := ids.NewSpace(fleetDim)
	states := make([]cycloid.NodeState, len(fl.nodes))
	for i, nd := range fl.nodes {
		st := nd.State()
		states[i] = cycloid.NodeState{
			ID:       ids.CycloidID{K: st.Self.K, A: st.Self.A},
			Cubical:  entryID(st.Cubical),
			CyclicL:  entryID(st.CyclicL),
			CyclicS:  entryID(st.CyclicS),
			InsideL:  leaf(st.InsideL),
			InsideR:  leaf(st.InsideR),
			OutsideL: leaf(st.OutsideL),
			OutsideR: leaf(st.OutsideR),
		}
	}
	var sc cycloid.Scratch
	i := 0
	l["cycloid.decide_ns"] = perCallNS(2_000_000, func() {
		t := space.FromLinear(uint64(i*131) % space.Size())
		step := cycloid.DecideStepScratch(space, &states[i%len(states)], t, false, &sc)
		sink += uint64(len(step.Candidates))
		i++
	})
}

// stepFrames is one step exchange as the overlay sends it.
func stepFrames() (codec.Request, codec.Response) {
	req := codec.Request{
		Op:     "step",
		From:   codec.Entry{K: 3, A: 17, Addr: "127.0.0.1:40001"},
		Target: &codec.Entry{K: 5, A: 42},
	}
	resp := codec.Response{OK: true, Phase: "descending", Candidates: []codec.Entry{
		{K: 2, A: 19, Addr: "127.0.0.1:40002"},
		{K: 2, A: 21, Addr: "127.0.0.1:40003"},
		{K: 3, A: 16, Addr: "127.0.0.1:40004"},
	}}
	return req, resp
}

// probeCodec prices encode+decode of one step exchange and of one
// 64 KiB chunk exchange (a store request and a fetch reply).
func probeCodec(l metrics) error {
	var failed error
	roundTrip := func(req *codec.Request, resp *codec.Response) func() {
		var rbuf, pbuf []byte
		return func() {
			var err error
			var dreq codec.Request
			var dresp codec.Response
			if rbuf, err = codec.AppendRequest(rbuf[:0], req); err == nil {
				err = codec.DecodeRequest(rbuf, &dreq)
			}
			if err == nil {
				if pbuf, err = codec.AppendResponse(pbuf[:0], resp); err == nil {
					err = codec.DecodeResponse(pbuf, &dresp)
				}
			}
			if err != nil {
				failed = err
			}
			sink += uint64(len(rbuf) + len(pbuf))
		}
	}
	req, resp := stepFrames()
	l["codec.step_rt_ns"] = perCallNS(300_000, roundTrip(&req, &resp))
	rb, _ := codec.AppendRequest(nil, &req)
	pb, _ := codec.AppendResponse(nil, &resp)
	l["codec.step_bytes"] = float64(len(rb) + len(pb))

	chunk := make([]byte, blobChunk)
	store := codec.Request{Op: "store", From: req.From, Key: "blob:c:0123456789abcdef0123456789abcdef", Value: chunk}
	fetched := codec.Response{OK: true, Found: true, Value: chunk, Ver: 7}
	l["codec.chunk_rt_ns"] = perCallNS(5_000, roundTrip(&store, &fetched))
	if failed != nil {
		return fmt.Errorf("codec probe: %w", failed)
	}
	return nil
}

// echoPeer is a minimal v2 mux peer: it acks the preamble and answers
// every frame with a frame of the same ID. With ack set the reply
// carries one byte (like a store acknowledgement); otherwise the request
// payload comes back whole.
type echoPeer struct {
	ln  net.Listener
	ack bool
	wg  sync.WaitGroup
}

func startEchoPeer(ln net.Listener, ack bool) *echoPeer {
	p := &echoPeer{ln: ln, ack: ack}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer conn.Close()
				p.serve(conn)
			}()
		}
	}()
	return p
}

func (p *echoPeer) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	pre := make([]byte, codec.PreambleLen)
	if _, err := io.ReadFull(br, pre); err != nil || string(pre) != codec.PreambleMuxV2 {
		return
	}
	if _, err := conn.Write(pre); err != nil {
		return
	}
	const envelope = 9 // u64 id + u8 status
	var frame []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < envelope || n > pool.DefaultMaxFrame {
			return
		}
		if cap(frame) < 4+n {
			frame = make([]byte, 4+n)
		}
		frame = frame[:4+n]
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[4:]); err != nil {
			return
		}
		if p.ack {
			frame = frame[:4+envelope+1]
			binary.LittleEndian.PutUint32(frame, envelope+1)
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}

// close stops accepting; connections end when the pool that dialed them
// closes, so close the pool first.
func (p *echoPeer) close() {
	p.ln.Close()
	p.wg.Wait()
}

// probePool prices one pooled exchange of a step-sized frame on memnet
// and on loopback TCP, and the 64 KiB frame rate on TCP with
// blobWindow calls in flight.
func probePool(l metrics) error {
	req, _ := stepFrames()
	small, err := codec.AppendRequest(nil, &req)
	if err != nil {
		return err
	}
	rtt := func(tr p2p.Transport, listen string) (float64, error) {
		ln, err := tr.Listen(listen)
		if err != nil {
			return 0, err
		}
		peer := startEchoPeer(ln, false)
		defer peer.close()
		pl := pool.New(pool.Config{Dial: tr.Dial, Codec: codec.Binary})
		defer pl.Close()
		var failed error
		call := func() {
			rep, err := pl.DoBytes(context.Background(), ln.Addr().String(), small, true, 2*time.Second)
			if err != nil {
				failed = err
				return
			}
			rep.Release()
		}
		call() // dial and negotiate outside the timing
		ns := perCallNS(20_000, call)
		return ns / 1e3, failed
	}
	if l["pool.echo_rtt_us_mem"], err = rtt(memnet.New(1).Host("probe"), ":0"); err != nil {
		return fmt.Errorf("pool probe (memnet): %w", err)
	}
	if l["pool.echo_rtt_us_tcp"], err = rtt(p2p.TCP, "127.0.0.1:0"); err != nil {
		return fmt.Errorf("pool probe (tcp): %w", err)
	}

	ln, err := p2p.TCP.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	peer := startEchoPeer(ln, true)
	defer peer.close()
	pl := pool.New(pool.Config{Dial: p2p.TCP.Dial, Codec: codec.Binary})
	defer pl.Close()
	chunk := make([]byte, blobChunk)
	const perCaller = 400
	errs := make([]error, blobWindow)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < blobWindow; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				rep, err := pl.DoBytes(context.Background(), ln.Addr().String(), chunk, true, 5*time.Second)
				if err != nil {
					errs[c] = err
					return
				}
				rep.Release()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pool probe (chunks): %w", err)
		}
	}
	l["pool.chunk_mib_s_tcp"] = float64(blobWindow*perCaller*blobChunk) / (1 << 20) / elapsed
	return nil
}

// probeTelemetry prices the two instrument updates on the hot paths.
func probeTelemetry(l metrics) {
	reg := telemetry.NewRegistry("probe")
	c := reg.Counter("ops_total", "probe")
	h := reg.Histogram("latency_us", "probe", telemetry.LatencyBucketsUS)
	l["telemetry.counter_inc_ns"] = perCallNS(5_000_000, c.Inc)
	v := int64(0)
	l["telemetry.hist_observe_ns"] = perCallNS(5_000_000, func() {
		h.Observe(v & 1023)
		v += 37
	})
}

// probeBlobLocal prices the blob layer with no wire under it: 1 MiB
// written to and read from a one-node overlay, so what is left is
// chunking, hashing, the manifest and the local store.
func probeBlobLocal(l metrics) error {
	nd, err := p2p.Start(p2p.Config{
		Dim: fleetDim, Transport: memnet.New(1).Host("solo"),
		PooledTransport: true, WireCodec: "binary", TraceBuffer: -1, SpanBuffer: -1,
	})
	if err != nil {
		return err
	}
	defer nd.Close()
	bs, err := blob.New(nd, blob.Options{ChunkSize: blobChunk, Window: blobWindow})
	if err != nil {
		return err
	}
	payload := make([]byte, blobSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	ctx := context.Background()
	var failed error
	const rounds = 40
	l["blob.local_put_us"] = perCallNS(rounds, func() {
		if err := bs.Put(ctx, "probe", payload); err != nil {
			failed = err
		}
	}) / 1e3
	l["blob.local_get_us"] = perCallNS(rounds, func() {
		got, err := bs.Get(ctx, "probe")
		if err != nil {
			failed = err
		}
		sink += uint64(len(got))
	}) / 1e3
	if failed != nil {
		return fmt.Errorf("blob probe: %w", failed)
	}
	return nil
}

// runProbes fills in every microloop metric.
func runProbes(fl *fleet, l metrics) error {
	probeDecide(fl, l)
	probeTelemetry(l)
	if err := probeCodec(l); err != nil {
		return err
	}
	if err := probePool(l); err != nil {
		return err
	}
	return probeBlobLocal(l)
}
