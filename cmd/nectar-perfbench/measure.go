package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"nectar"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// meter takes the host-side measurements of one workload repetition. The
// workload calls it at every boundary where it enters a layer of the
// simulator: cluster build, node materialization, connection set-up, each
// RunFor step, and the final MetricsSnapshot. Untraced, it keeps only the
// phase totals the end-to-end metrics need; traced, it also records one
// span per call (kept in memory and written out when the run ends), reads
// the registry at the set-up/run boundary, and takes a CPU profile of the
// run interval.
type meter struct {
	traced bool
	spans  []span

	setupStart time.Time
	phase      map[string]float64 // seconds per phase name

	// Run interval: from the first op issued to results in hand.
	runStart     time.Time
	runSeconds   float64
	snapSeconds  float64
	cpuStart     float64
	memStart     runtime.MemStats
	memEnd       runtime.MemStats
	cpuSeconds   float64
	heapPeak     uint64
	heapSample   []metrics.Sample
	virtStart    sim.Time
	virtEnd      sim.Time
	eventsStart  uint64
	eventsEnd    uint64
	setupSnap    *obs.Snapshot
	profile      bytes.Buffer
	profileError error
}

// profileHz is the CPU profile's sampling rate.
const profileHz = 1000

// span is one timed call into a layer, relative to the set-up start.
type span struct {
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"`
	Seconds float64 `json:"seconds"`
}

func newMeter(traced bool) *meter {
	return &meter{
		traced:     traced,
		phase:      map[string]float64{},
		heapSample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// begin starts the set-up clock.
func (m *meter) begin() { m.setupStart = time.Now() }

// time runs f as the named phase and records it.
func (m *meter) time(name string, f func()) {
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	m.phase[name] += d
	if m.traced {
		m.spans = append(m.spans, span{name, t0.Sub(m.setupStart).Seconds(), d})
	}
}

// startOps ends set-up and starts the run interval: the first op is about
// to be issued by the next RunFor.
func (m *meter) startOps(cl *nectar.Cluster) {
	if m.traced {
		m.time("obs.setup_snapshot", func() { m.setupSnap = cl.MetricsSnapshot() })
	}
	m.eventsStart = dispatched(cl)
	m.virtStart = cl.Now()
	runtime.ReadMemStats(&m.memStart)
	m.sampleHeap()
	if m.traced {
		// 1 kHz instead of pprof's default 100 Hz: a cab-rpc run is a
		// third of a second. StartCPUProfile warns on stderr that the
		// rate is already set, and keeps it.
		runtime.SetCPUProfileRate(profileHz)
		m.profileError = pprof.StartCPUProfile(&m.profile)
	}
	m.cpuStart = processCPUSeconds()
	m.runStart = time.Now()
}

// step advances the simulation by d and samples the heap.
func (m *meter) step(cl *nectar.Cluster, d sim.Duration) error {
	var err error
	if m.traced {
		m.time("sim.run_for", func() { err = cl.RunFor(d) })
	} else {
		err = cl.RunFor(d)
	}
	m.sampleHeap()
	return err
}

// finish takes the final MetricsSnapshot and closes the run interval.
func (m *meter) finish(cl *nectar.Cluster) *obs.Snapshot {
	m.virtEnd = cl.Now()
	m.eventsEnd = dispatched(cl)
	t0 := time.Now()
	snap := cl.MetricsSnapshot()
	end := time.Now()
	m.cpuSeconds = processCPUSeconds() - m.cpuStart
	if m.traced {
		pprof.StopCPUProfile()
		m.spans = append(m.spans, span{"obs.snapshot", t0.Sub(m.setupStart).Seconds(), end.Sub(t0).Seconds()})
	}
	runtime.ReadMemStats(&m.memEnd)
	m.sampleHeap()
	m.snapSeconds = end.Sub(t0).Seconds()
	m.runSeconds = t0.Sub(m.runStart).Seconds()
	return snap
}

// setupSeconds is the set-up time: build, materialization and connection
// set-up, up to the first op issued.
func (m *meter) setupSeconds() float64 { return m.runStart.Sub(m.setupStart).Seconds() }

// intervalSeconds is the run interval: the run plus the final snapshot.
func (m *meter) intervalSeconds() float64 { return m.runSeconds + m.snapSeconds }

func (m *meter) sampleHeap() {
	metrics.Read(m.heapSample)
	if v := m.heapSample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > m.heapPeak {
		m.heapPeak = v.Uint64()
	}
}

func dispatched(cl *nectar.Cluster) uint64 {
	var n uint64
	for _, k := range cl.Kernels() {
		n += k.Dispatched()
	}
	return n
}

// processCPUSeconds is the process's user+system CPU time so far.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// retained measures the heap and goroutines still alive after two full
// GCs.
func retained() (heapBytes uint64, goroutines int) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, runtime.NumGoroutine()
}
