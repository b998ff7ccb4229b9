package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"time"
)

// The calibration kernel measures how fast the host is right now, so a
// window timed on a slow minute and one timed on a fast minute can be
// compared. It uses the standard library only and touches nothing of the
// program under test. All of its memory is allocated in newKernel: a run
// allocates nothing, so the overlay's heap and collector cannot leak
// into it.
//
// A run has two parts of equal weight on the reference host:
//
//	P  on each of nproc goroutines at once: SHA-256 over an 8 MiB
//	   buffer, an in-place sort of 100k fixed uint64s, and a chain of
//	   800k dependent random probes into a table far larger than the
//	   caches;
//	D  12 000 64-byte ping-pongs over one loopback TCP connection pair.
//
// The probes are four fifths of P on purpose. On the shared hosts this
// runs on, what drifts from minute to minute is memory latency under
// the neighbours' load, which the overlay (goroutine hand-offs, channel
// and map traffic, the collector) feels and a hash or a sort does not;
// README.md has the measurements. The hash and the sort keep P
// sensitive to the core's clock, which is what differs between an idle
// and a busy host. D tracks the kernel's wake-up and loopback cost.
const (
	calShaBytes  = 8 << 20
	calSortLen   = 100_000
	calProbes    = 800_000
	calTableLen  = 1 << 22 // 32 MiB of uint64
	calPingPongs = 12_000
	calPingBytes = 64

	// CalRefMS, calRefPMS and calRefDMS pin the units of `speed`: they
	// are the kernel's times on the host the seed values in README.md
	// were measured on. Changing them rescales every normalised metric by
	// a constant and changes nothing else. speed = 1 means "as fast as
	// that host".
	CalRefMS  = 170.0
	calRefPMS = 82.0
	calRefDMS = 88.0

	// A host that has been idle runs the first second or so of load at
	// a fraction of its speed. settle repeats the kernel until two
	// passes in a row agree this closely, at most settleMax times.
	settleTolerance = 0.03
	settleMax       = 12
)

// kernel owns the calibration scratch memory, its worker goroutines and
// its loopback connection pair.
type kernel struct {
	shaBuf []byte
	table  []uint64
	tmpl   []uint64

	start []chan struct{}
	done  chan uint64

	ln     net.Listener
	client net.Conn
	echoed chan struct{}
	ping   [calPingBytes]byte
	pong   [calPingBytes]byte
}

// sink keeps the compiler from discarding the kernel's results.
var sink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newKernel() (*kernel, error) {
	k := &kernel{
		shaBuf: make([]byte, calShaBytes),
		table:  make([]uint64, calTableLen),
		tmpl:   make([]uint64, calSortLen),
		done:   make(chan uint64),
		echoed: make(chan struct{}),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.shaBuf {
		x = xorshift(x)
		k.shaBuf[i] = byte(x)
	}
	for i := range k.table {
		x = xorshift(x)
		k.table[i] = x
	}
	for i := range k.tmpl {
		x = xorshift(x)
		k.tmpl[i] = x
	}
	for w := 0; w < runtime.NumCPU(); w++ {
		ch := make(chan struct{})
		k.start = append(k.start, ch)
		go k.worker(ch, make([]uint64, calSortLen), uint64(w)+1)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration: listen: %w", err)
	}
	k.ln = ln
	go k.echo()
	k.client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("calibration: dial: %w", err)
	}
	return k, nil
}

// worker runs part P each time it is started, until its channel closes.
func (k *kernel) worker(start chan struct{}, scratch []uint64, seed uint64) {
	for range start {
		sum := sha256.Sum256(k.shaBuf)
		acc := uint64(sum[0])
		copy(scratch, k.tmpl)
		slices.Sort(scratch)
		acc += scratch[calSortLen/2]
		// Each probe's index depends on the value the last one loaded,
		// so the loads cannot overlap: this times memory latency.
		at := seed * 0x9e3779b97f4a7c15
		for i := uint64(0); i < calProbes; i++ {
			at = k.table[at&(calTableLen-1)] + i
		}
		k.done <- acc + at
	}
}

// echo serves the one calibration connection: it sends back every
// 64-byte message it reads.
func (k *kernel) echo() {
	defer close(k.echoed)
	conn, err := k.ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	var buf [calPingBytes]byte
	for {
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return
		}
		if _, err := conn.Write(buf[:]); err != nil {
			return
		}
	}
}

// calSample is one kernel run.
type calSample struct {
	pMS, dMS float64
}

// ms is the sample as one time: each part scaled to half of CalRefMS on
// the reference host, so the two weigh the same whatever their raw
// lengths.
func (s calSample) ms() float64 {
	return CalRefMS * 0.5 * (s.pMS/calRefPMS + s.dMS/calRefDMS)
}

// run times one pass of the kernel. It allocates nothing.
func (k *kernel) run() (calSample, error) {
	t0 := time.Now()
	for _, ch := range k.start {
		ch <- struct{}{}
	}
	for range k.start {
		sink += <-k.done
	}
	t1 := time.Now()
	for i := 0; i < calPingPongs; i++ {
		k.ping[0] = byte(i)
		if _, err := k.client.Write(k.ping[:]); err != nil {
			return calSample{}, fmt.Errorf("calibration: write: %w", err)
		}
		if _, err := io.ReadFull(k.client, k.pong[:]); err != nil {
			return calSample{}, fmt.Errorf("calibration: read: %w", err)
		}
	}
	t2 := time.Now()
	return calSample{
		pMS: float64(t1.Sub(t0)) / 1e6,
		dMS: float64(t2.Sub(t1)) / 1e6,
	}, nil
}

// settle runs the kernel until the host has reached a steady speed and
// returns the last sample, so the first calibration of a run is taken on
// a host as warm as the last one's.
func (k *kernel) settle() (calSample, error) {
	prev, err := k.run()
	for i := 1; err == nil && i < settleMax; i++ {
		var cur calSample
		if cur, err = k.run(); err != nil {
			break
		}
		d := cur.pMS/prev.pMS - 1
		prev = cur
		if d > -settleTolerance && d < settleTolerance {
			break
		}
	}
	return prev, err
}

// close stops the workers and the echo goroutine and waits for the
// latter, which owns the accepted connection.
func (k *kernel) close() {
	for _, ch := range k.start {
		close(ch)
	}
	k.client.Close()
	k.ln.Close()
	<-k.echoed
}
