package main

import (
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const mb = 1 << 20

// sample is what one timed region cost.
type sample struct {
	wallS, cpuS      float64
	allocMB, wireMB  float64
	gcCycles, gcMsec float64
}

// meter measures a timed region: wall clock, process CPU, bytes allocated,
// GC activity and the bytes that crossed the worker connections counted in
// wire. The MemStats reads stop the world, so they sit outside the clock.
type meter struct {
	wire *atomic.Int64

	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	w0   int64
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.w0 = m.wire.Load()
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) stop() sample {
	wall := time.Since(m.t0)
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{
		wallS:    wall.Seconds(),
		cpuS:     cpu - m.cpu0,
		allocMB:  float64(ms.TotalAlloc-m.ms0.TotalAlloc) / mb,
		wireMB:   float64(m.wire.Load()-m.w0) / mb,
		gcCycles: float64(ms.NumGC - m.ms0.NumGC),
		gcMsec:   float64(ms.PauseTotalNs-m.ms0.PauseTotalNs) / 1e6,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// countConn adds every byte read from or written to the connection to n.
// Wrapped around the worker side of a connection it sees both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countListener counts the traffic of every connection it accepts.
type countListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, l.n}, nil
}

// median and quartiles use the same definition the acceptance driver does
// (Python's statistics.quantiles(n=4), the exclusive method).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
