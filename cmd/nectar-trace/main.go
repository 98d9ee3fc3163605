// Command nectar-trace runs a single exchange with the typed trace sink
// installed and prints three views of the virtual-time record: the event
// timeline, the span tree, and — when all stage markers are present — a
// Figure 6-style stage breakdown with the paper's host / host-CAB
// interface / CAB-to-CAB bucket attribution.
//
// Usage:
//
//	nectar-trace [-proto datagram|rmp|rrp] [-size N] [-q]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"nectar"
	"nectar/internal/bench"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func main() {
	proto := flag.String("proto", "datagram", "transport to trace: datagram | rmp | rrp")
	size := flag.Int("size", 4, "message size in bytes")
	quiet := flag.Bool("q", false, "suppress the raw event timeline")
	flag.Parse()
	switch *proto {
	case "datagram", "rmp", "rrp":
	default:
		log.Fatalf("unknown -proto %q (want datagram, rmp or rrp)", *proto)
	}
	x, err := run(*proto, *size)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace: %s, %d bytes, node %d -> node %d\n", *proto, *size, x.nodeA, x.nodeB)
	fmt.Printf("end-to-end completion: %v (%d events)\n", sim.Duration(x.end-x.an.Start), len(x.events))

	if !*quiet {
		fmt.Printf("\n%12s  %10s  event\n", "t (us)", "delta")
		prev := x.an.Start
		for _, e := range x.events {
			fmt.Printf("%12.3f  %+9.3f  n%d %-8s %-7s %s%s\n",
				float64(e.At-x.an.Start)/1e3, float64(e.At-prev)/1e3,
				e.Node, e.Layer, e.Kind, e.Name, eventDetail(e))
			prev = e.At
		}
	}

	printSpanTree(x.events, x.an.Start)
	if *proto == "rrp" {
		// The RRP server answers from the CAB; the one-way breakdown does
		// not apply to the round trip.
		return
	}
	r, err := x.stages()
	if err != nil {
		fmt.Printf("\n(stage breakdown unavailable: %v)\n", err)
		return
	}
	fmt.Printf("\nfigure-6 stage breakdown (one-way, %s):\n", *proto)
	for _, s := range r.Stages {
		fmt.Printf("  %-40s %8.1f us  [%s]\n", s.Name, s.US, s.Bucket)
	}
	fmt.Printf("  %-40s %8.1f us\n", "total", r.TotalUS)
	fmt.Printf("\nbuckets: host %.0f%%  host-CAB interface %.0f%%  CAB-to-CAB %.0f%%\n",
		r.HostPct, r.InterfacePct, r.CABPct)
}

// exchange is the record of one traced exchange: the events inside its
// window and the workload-side instants the event stream cannot see
// (pure host compute phases).
type exchange struct {
	proto        string
	events       []obs.Event
	end          sim.Time
	an           bench.StageAnchors
	nodeA, nodeB int
}

// stages computes the Figure 6 one-way breakdown over the recorded
// events, with the same stage boundaries nectar-bench fig6 uses.
func (x *exchange) stages() (*bench.Fig6Result, error) {
	var marks bench.Marks
	for _, e := range x.events {
		marks.Event(e)
	}
	return bench.OneWayStages(x.proto, &marks, x.nodeA, x.nodeB, x.an)
}

// run performs one exchange over proto with a size-byte payload and
// returns its trace.
func run(proto string, size int) (*exchange, error) {
	cost := model.Default1990()
	cl := nectar.NewCluster(&nectar.Config{Cost: cost})
	a := cl.AddNode()
	b := cl.AddNode()
	x := &exchange{proto: proto, nodeA: int(a.ID), nodeB: int(b.ID)}

	// Typed trace sink, gated so the boot transient is not recorded.
	rec := &obs.Recorder{}
	tracing := false
	o := obs.Ensure(cl.K)
	o.SetSink(obs.SinkFunc(func(e obs.Event) {
		if tracing {
			rec.Event(e)
		}
	}))

	sink := b.Mailboxes.Create("trace.sink")
	service := b.Mailboxes.Create("trace.service")
	addrSink := wire.MailboxAddr{Node: b.ID, Box: sink.ID()}
	addrSvc := wire.MailboxAddr{Node: b.ID, Box: service.ID()}
	payload := make([]byte, size)

	rxDone := false
	if proto == "rrp" {
		rxDone = true // the sender observes completion itself
		b.CAB.Sched.Fork("server", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			m := service.BeginGet(ctx)
			b.Transports.RRP.Reply(ctx, m, payload)
			service.EndGet(ctx, m)
		})
	} else {
		b.Host.Run("receiver", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			m := sink.BeginGetPoll(ctx)
			x.an.RxBegin = t.Now()
			buf := make([]byte, m.Len())
			m.Read(ctx, 0, buf)
			t.Compute(cost.HostMessageRead)
			x.an.ReadDone = t.Now()
			sink.EndGet(ctx, m)
			x.an.RxEnd = t.Now()
			x.end = x.an.RxEnd
			rxDone = true
		})
	}

	done := false
	a.Host.Run("sender", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		t.Sleep(5 * sim.Millisecond) // boot transient
		tracing = true
		x.an.Start = t.Now()
		t.Compute(cost.HostMessageCreate) // the paper's "host creating the message"
		x.an.CreateDone = t.Now()
		switch proto {
		case "datagram":
			a.Transports.Datagram.Send(ctx, addrSink, 0, payload, nil)
		case "rmp":
			st := a.Syncs.Alloc(ctx)
			a.Transports.RMP.Send(ctx, addrSink, 0, payload, st)
			st.Read(ctx)
		case "rrp":
			st := a.Syncs.Alloc(ctx)
			replyBox := a.Mailboxes.Create("trace.reply")
			a.Transports.RRP.Call(ctx, addrSvc, payload, replyBox, st)
			st.Read(ctx)
			m := replyBox.BeginGetPoll(ctx)
			replyBox.EndGet(ctx, m)
		}
		if t.Now() > x.end {
			x.end = t.Now()
		}
		done = true
	})

	for !done || !rxDone {
		if err := cl.RunFor(10 * sim.Millisecond); err != nil {
			return nil, err
		}
		if cl.Now() > sim.Time(5*sim.Second) {
			return nil, fmt.Errorf("exchange did not complete")
		}
	}

	// Keep only events inside the exchange window.
	for _, e := range rec.Events {
		if e.At <= x.end {
			x.events = append(x.events, e)
		}
	}
	return x, nil
}

func eventDetail(e obs.Event) string {
	var sb strings.Builder
	if e.Arg != "" {
		sb.WriteString(" " + e.Arg)
	}
	if e.Seq != 0 {
		fmt.Fprintf(&sb, " seq=%d", e.Seq)
	}
	if e.Bytes != 0 {
		fmt.Fprintf(&sb, " len=%d", e.Bytes)
	}
	return sb.String()
}

// printSpanTree reconstructs Begin/End pairs and prints them nested by
// causal parent.
func printSpanTree(events []obs.Event, start sim.Time) {
	type span struct {
		id, parent obs.SpanID
		begin, end sim.Time
		node       int
		layer      obs.Layer
		name       string
		bytes      int
		children   []obs.SpanID
	}
	spans := map[obs.SpanID]*span{}
	var roots []obs.SpanID
	for _, e := range events {
		switch e.Kind {
		case obs.Begin:
			spans[e.Span] = &span{id: e.Span, parent: e.Parent, begin: e.At, end: e.At,
				node: e.Node, layer: e.Layer, name: e.Name, bytes: e.Bytes}
		case obs.End:
			if s, ok := spans[e.Span]; ok {
				s.end = e.At
			}
		}
	}
	for _, s := range spans {
		if p, ok := spans[s.parent]; ok && s.parent != 0 {
			p.children = append(p.children, s.id)
		} else {
			roots = append(roots, s.id)
		}
	}
	if len(spans) == 0 {
		return
	}
	sortIDs := func(ids []obs.SpanID) {
		sort.Slice(ids, func(i, j int) bool {
			si, sj := spans[ids[i]], spans[ids[j]]
			if si.begin != sj.begin {
				return si.begin < sj.begin
			}
			return si.id < sj.id
		})
	}
	fmt.Printf("\nspans:\n")
	var walk func(id obs.SpanID, depth int)
	walk = func(id obs.SpanID, depth int) {
		s := spans[id]
		detail := ""
		if s.bytes != 0 {
			detail = fmt.Sprintf(" len=%d", s.bytes)
		}
		fmt.Printf("  %s%8.3fus +%8.3fus  n%d %s.%s%s\n",
			strings.Repeat("  ", depth), float64(s.begin-start)/1e3,
			float64(s.end-s.begin)/1e3, s.node, s.layer, s.name, detail)
		sortIDs(s.children)
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	sortIDs(roots)
	for _, r := range roots {
		walk(r, 0)
	}
}
