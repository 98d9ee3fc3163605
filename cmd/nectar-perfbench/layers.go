package main

import (
	"time"

	"nectar"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Per-layer metrics of a traced repetition. Counts are registry deltas
// over the run interval (the set-up snapshot subtracted from the final
// one) plus the kernel, coupling and route-table accessors; host times
// come from the meter's spans around the benchmark's own calls.

// counts are the run-interval totals the ledger multiplies by per-layer
// costs.
type counts struct {
	events, switches, interrupts, puts, frames, tcpBytes float64
	runSeconds                                           float64
}

func layerMetrics(out *simOut, m *meter, ok int) (map[string]float64, counts) {
	end, start := out.snap, m.setupSnap
	d := func(layer obs.Layer, name string) float64 {
		return float64(end.Sum(layer, name) - start.Sum(layer, name))
	}
	per := func(v float64) float64 { return v / float64(ok) }
	events := float64(m.eventsEnd - m.eventsStart)
	virt := sim.Duration(m.virtEnd - m.virtStart).Seconds()
	L := map[string]float64{}

	L["sim.events_per_op"] = per(events)
	L["sim.host_ns_per_event"] = m.runSeconds * 1e9 / events
	L["sim.run_s"] = m.runSeconds
	L["sim.virt_per_wall"] = virt / m.runSeconds

	L["pdes.windows"] = float64(out.windows)
	L["pdes.events_per_window"] = 0
	if out.windows > 0 {
		L["pdes.events_per_window"] = events / float64(out.windows)
	}
	L["pdes.cross_shard_frames"] = float64(out.crossShard)

	switches, interrupts := d(obs.LayerSched, "context_switches"), d(obs.LayerSched, "interrupts")
	L["threads.switches_per_op"] = per(switches)
	L["threads.interrupts_per_op"] = per(interrupts)
	scheds := 0
	for _, e := range end.Entries {
		if e.Layer == string(obs.LayerSched) && e.Name == "busy_ns" {
			scheds++
		}
	}
	L["threads.busy_frac"] = d(obs.LayerSched, "busy_ns") / 1e9 / (virt * float64(scheds))

	puts := d(obs.LayerMailbox, "puts")
	L["mailbox.puts_per_op"] = per(puts)
	L["mailbox.gets_per_op"] = per(d(obs.LayerMailbox, "gets"))
	L["mailbox.enqueues_per_op"] = per(d(obs.LayerMailbox, "enqueues"))
	qw := busiestHist(end, obs.LayerMailbox, "queue_wait")
	L["mailbox.queue_wait_us_p50"] = qw.P50US
	L["mailbox.queue_wait_us_p99"] = qw.P99US

	L["vme.pio_words_per_op"] = per(d(obs.LayerVME, "pio_words"))
	L["vme.dma_bytes_per_op"] = per(d(obs.LayerVME, "dma_bytes"))
	L["hostif.doorbells_per_op"] = per(d(obs.LayerHostIF, "doorbells"))
	L["hostif.host_interrupts"] = d(obs.LayerHostIF, "host_interrupts")

	segs := d(obs.LayerTCP, "segs_out")
	L["tcp.segs_out_per_op"] = per(segs)
	L["tcp.retransmits"] = d(obs.LayerTCP, "retransmits")
	L["tcp.ack_rtt_us_p50"] = busiestHist(end, obs.LayerTCP, "ack_rtt").P50US

	L["datalink.delivered"] = d(obs.LayerDatalink, "delivered")
	L["datalink.no_buffer"] = d(obs.LayerDatalink, "no_buffer")
	L["datalink.crc_drops"] = d(obs.LayerDatalink, "crc_drops")
	L["cab.rx_frames"] = d(obs.LayerCAB, "rx_frames")

	L["fiber.frames"] = d(obs.LayerFiber, "frames")
	L["fiber.dropped"] = d(obs.LayerFiber, "dropped")
	L["fiber.corrupted"] = d(obs.LayerFiber, "corrupted")
	L["hub.forwarded_per_op"] = per(d(obs.LayerFiber, "hub_forwarded"))

	L["rmp.retransmits"] = d(obs.LayerRMP, "retransmits")
	L["rmp.timeouts"] = d(obs.LayerRMP, "timeouts")
	L["rrp.retransmits"] = d(obs.LayerRRP, "retransmits")
	L["rrp.calls"] = d(obs.LayerRRP, "calls")

	L["cluster.build_s"] = m.phase["cluster.build"]
	L["cluster.materialize_s"] = m.phase["cluster.materialize"]
	L["cluster.connect_s"] = m.phase["cluster.connect"]
	L["fabric.route_entries"] = float64(out.routeEntries)

	L["obs.snapshot_s"] = m.snapSeconds

	L["gc.cycles"] = float64(m.memEnd.NumGC - m.memStart.NumGC)
	L["gc.pause_s"] = float64(m.memEnd.PauseTotalNs-m.memStart.PauseTotalNs) / 1e9

	c := counts{
		events: events, switches: switches, interrupts: interrupts, puts: puts,
		frames:     d(obs.LayerCAB, "rx_frames") + d(obs.LayerCAB, "tx_frames"),
		runSeconds: m.runSeconds,
	}
	if segs > 0 {
		// Software checksums run over every TCP byte once at the sender
		// and once at the receiver; on a single HUB each frame crosses two
		// fiber links, so the fiber byte count is that total.
		c.tcpBytes = d(obs.LayerFiber, "bytes")
	}
	return L, c
}

// busiestHist returns the histogram summary of the scope with the most
// observations (quantiles cannot be merged across scopes from summaries).
func busiestHist(s *obs.Snapshot, layer obs.Layer, name string) obs.HistStats {
	var best obs.HistStats
	for _, e := range s.Entries {
		if e.Layer == string(layer) && e.Name == name && e.Hist != nil && e.Hist.Count > best.Count {
			best = *e.Hist
		}
	}
	return best
}

// The ledger: each layer's public operations timed in isolation, then
// multiplied by how often the traced run performed them. The terms
// overlap (a thread switch schedules kernel events of its own), so the
// sum is an estimate; the residual is reported as measured.

// layerCosts are the isolated per-operation host costs, in ns.
type layerCosts struct {
	procSwitch, afterStop, yield, mailboxCycle, checksumKB, header float64
}

func measureLayerCosts() layerCosts {
	return layerCosts{
		procSwitch:   benchProcSwitch(20000),
		afterStop:    benchAfterStop(200000),
		yield:        benchYield(20000),
		mailboxCycle: benchMailbox(20000),
		checksumKB:   benchChecksum(50000),
		header:       benchHeader(200000),
	}
}

func ledger(c counts, lc layerCosts) map[string]float64 {
	terms := map[string]float64{
		"ledger.events_s":     c.events * lc.afterStop,
		"ledger.switches_s":   c.switches * lc.yield,
		"ledger.interrupts_s": c.interrupts * lc.procSwitch,
		"ledger.mailbox_s":    c.puts * lc.mailboxCycle,
		"ledger.checksum_s":   c.tcpBytes / 1024 * lc.checksumKB,
		"ledger.headers_s":    c.frames * lc.header,
	}
	L := map[string]float64{
		"ledger.proc_switch_ns":     lc.procSwitch,
		"ledger.after_stop_ns":      lc.afterStop,
		"ledger.yield_ns":           lc.yield,
		"ledger.mailbox_cycle_ns":   lc.mailboxCycle,
		"ledger.checksum_ns_per_kb": lc.checksumKB,
		"ledger.header_ns":          lc.header,
	}
	var explained float64
	for k, ns := range terms {
		L[k] = ns / 1e9
		explained += ns / 1e9
	}
	L["ledger.explained_frac"] = explained / c.runSeconds
	L["ledger.residual_s"] = c.runSeconds - explained
	return L
}

// nsPer times f and returns its host nanoseconds per operation.
func nsPer(ops int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// benchProcSwitch: two procs hand control back and forth through
// Signal.Signal and Proc.Wait; one switch is one wake-up.
func benchProcSwitch(n int) float64 {
	k := sim.NewKernel()
	ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
	k.Go("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(ping)
			pong.Signal()
		}
	})
	k.Go("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Signal()
			p.Wait(pong)
		}
	})
	return nsPer(2*n, func() { mustRun(k.Run()) })
}

// mustRun stops a layer microbenchmark whose simulation deadlocked or
// panicked: its figure would be meaningless.
func mustRun(err error) {
	if err != nil {
		panic("nectar-perfbench: layer microbenchmark: " + err.Error())
	}
}

// benchAfterStop: schedule a timer and cancel it.
func benchAfterStop(n int) float64 {
	k := sim.NewKernel()
	fire := func() {}
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			k.After(sim.Microsecond, fire).Stop()
		}
	})
}

// benchYield: two CAB threads at one priority yield to each other.
func benchYield(n int) float64 {
	k := sim.NewKernel()
	s := threads.New(k, model.Default1990(), "perf")
	for j := 0; j < 2; j++ {
		s.Fork("yield", threads.AppPriority, func(t *threads.Thread) {
			for i := 0; i < n; i++ {
				t.Yield()
			}
		})
	}
	return nsPer(2*n, func() { mustRun(k.Run()) })
}

// benchMailbox: one CAB thread puts a 64-byte message into a mailbox and
// takes it out again: BeginPut, EndPut, BeginGet, EndGet.
func benchMailbox(n int) float64 {
	cl := nectar.NewCluster(nil)
	node := cl.AddNode()
	box := node.Mailboxes.Create("perf.cycle")
	done := false
	node.CAB.Sched.Fork("cycle", threads.AppPriority, func(t *threads.Thread) {
		ctx := exec.OnCAB(t)
		for i := 0; i < n; i++ {
			box.EndPut(ctx, box.BeginPut(ctx, 64))
			box.EndGet(ctx, box.BeginGet(ctx))
		}
		done = true
	})
	return nsPer(n, func() {
		for !done {
			mustRun(cl.RunFor(10 * sim.Millisecond))
		}
	})
}

// benchChecksum: the Internet checksum over 1 KB.
func benchChecksum(n int) float64 {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var sink uint16
	ns := nsPer(n, func() {
		for i := 0; i < n; i++ {
			sink ^= wire.Checksum(buf)
		}
	})
	_ = sink
	return ns
}

// benchHeader: marshal and unmarshal a Nectar transport header.
func benchHeader(n int) float64 {
	var b [wire.NectarHeaderLen]byte
	h := wire.NectarHeader{DstBox: 7, SrcBox: 9, Flags: wire.FlagData, Len: 512}
	var back wire.NectarHeader
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			h.Seq = uint32(i)
			h.Marshal(b[:])
			_ = back.Unmarshal(b[:])
		}
	})
}
