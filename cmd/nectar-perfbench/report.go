package main

import "strings"

// endToEndReport takes the median of every end-to-end metric across the
// untraced repetitions.
func endToEndReport(reps []*repResult) ([]string, map[string]metric) {
	var names []string
	ms := map[string]metric{}
	for _, u := range endToEndUnits {
		name := u.name
		names = append(names, name)
		ms[name] = metric{medianOf(reps, func(r *repResult) float64 { return r.EndToEnd[name] }), u.unit}
	}
	return names, ms
}

// perLayerReport takes the median of every per-layer metric across the
// traced repetitions, each layer's share of their pooled CPU profiles, and
// the tracing overhead: the traced repetitions' ops_per_s shortfall
// against the untraced ones.
func perLayerReport(reps, traced []*repResult) ([]string, map[string]metric) {
	var names []string
	ms := map[string]metric{}
	pooled := map[string]float64{}
	var total float64
	for _, r := range traced {
		for l, ns := range r.ProfileNS {
			pooled[l] += ns
			total += ns
		}
	}
	for _, name := range perLayerNames() {
		name := name
		names = append(names, name)
		v := medianOf(traced, func(r *repResult) float64 { return r.Layers[name] })
		if l, ok := strings.CutSuffix(name, ".self_frac"); ok {
			v = 0
			if total > 0 {
				v = pooled[l] / total
			}
		}
		ms[name] = metric{v, perLayerUnit(name)}
	}
	ops := func(r *repResult) float64 { return r.EndToEnd["ops_per_s"] }
	ms["trace.overhead_frac"] = metric{1 - medianOf(traced, ops)/medianOf(reps, ops), "ratio"}
	names = append(names, "trace.overhead_frac")
	return names, ms
}

// perLayerNames lists the per-layer metrics in report order.
func perLayerNames() []string {
	names := []string{
		"sim.events_per_op", "sim.host_ns_per_event", "sim.run_s", "sim.virt_per_wall",
		"pdes.windows", "pdes.events_per_window", "pdes.cross_shard_frames", "pdes.seq_divergent_flows",
		"threads.switches_per_op", "threads.interrupts_per_op", "threads.busy_frac",
		"mailbox.puts_per_op", "mailbox.gets_per_op", "mailbox.enqueues_per_op",
		"mailbox.queue_wait_us_p50", "mailbox.queue_wait_us_p99",
		"vme.pio_words_per_op", "vme.dma_bytes_per_op", "hostif.doorbells_per_op", "hostif.host_interrupts",
		"tcp.segs_out_per_op", "tcp.retransmits", "tcp.ack_rtt_us_p50",
		"datalink.delivered", "datalink.no_buffer", "datalink.crc_drops", "cab.rx_frames",
		"fiber.frames", "fiber.dropped", "fiber.corrupted", "hub.forwarded_per_op",
		"rmp.retransmits", "rmp.timeouts", "rrp.retransmits", "rrp.calls",
		"cluster.build_s", "cluster.materialize_s", "cluster.connect_s", "fabric.route_entries",
		"obs.snapshot_s", "gc.cycles", "gc.pause_s",
		"ledger.explained_frac", "ledger.residual_s",
		"ledger.events_s", "ledger.switches_s", "ledger.interrupts_s",
		"ledger.mailbox_s", "ledger.checksum_s", "ledger.headers_s",
		"ledger.proc_switch_ns", "ledger.after_stop_ns", "ledger.yield_ns",
		"ledger.mailbox_cycle_ns", "ledger.checksum_ns_per_kb", "ledger.header_ns",
	}
	for _, l := range profileLayers {
		names = append(names, l+".self_frac")
	}
	return names
}

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	suffixes := []struct{ suffix, unit string }{
		{"_frac", "ratio"}, {"_us_p50", "us"}, {"_us_p99", "us"}, {"_ns_per_kb", "ns"},
		{"_ns_per_event", "ns"}, {"_ns", "ns"}, {"_s", "s"}, {"bytes_per_op", "B"},
		{"virt_per_wall", "ratio"},
	}
	for _, s := range suffixes {
		if len(name) >= len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}
