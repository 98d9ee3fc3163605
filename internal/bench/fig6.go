package bench

import (
	"fmt"

	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Fig6Stage is one segment of the one-way latency breakdown.
type Fig6Stage struct {
	Name   string
	US     float64
	Bucket string // the paper's attribution: BucketHost, BucketInterface or BucketCAB
}

// The paper's three buckets: message handling on the hosts; the host-CAB
// interface on both sides (mailbox ops over the VME bus, doorbells,
// thread wakeup, polling); CAB-to-CAB (protocol processing, DMA, fiber,
// HUB).
const (
	BucketHost      = "host"
	BucketInterface = "interface"
	BucketCAB       = "cab"
)

// Fig6Result reproduces the paper's Figure 6: the component breakdown of
// a one-way host-to-host datagram (paper total: 163 µs, split roughly
// 40 % host-CAB interface, 40 % CAB-to-CAB, 20 % host message handling).
type Fig6Result struct {
	TotalUS float64
	Stages  []Fig6Stage
	Metrics *obs.Snapshot // registry snapshot at the end of the run
	// Bucket percentages per the paper's attribution.
	HostPct      float64 // host creating and reading the message
	InterfacePct float64 // host-CAB interface (both sides)
	CABPct       float64 // CAB-to-CAB (protocol processing + wire)
}

// StageAnchors are the instants of a one-way exchange that no trace event
// marks: the host-side compute phases, read off the workload's threads.
type StageAnchors struct {
	Start      sim.Time // sender begins creating the message
	CreateDone sim.Time // message created; the send call begins
	RxBegin    sim.Time // receiver's begin_get returned
	ReadDone   sim.Time // receiver read and processed the message
	RxEnd      sim.Time // receiver's end_get returned
}

// OneWayStages attributes every microsecond of a one-way host-to-host
// message from node a to node b, sent over transport proto ("datagram"
// or "rmp"), to the eleven Figure 6 stages and the paper's three buckets.
// Stage boundaries inside the network path are the first occurrences of
// obs trace events in marks; the host-side ones come from an.
func OneWayStages(proto string, marks *Marks, a, b int, an StageAnchors) (*Fig6Result, error) {
	var err error
	at := func(node int, layer obs.Layer, name, arg string) sim.Time {
		t, ok := marks.At(node, layer, name, arg)
		if !ok && err == nil {
			err = fmt.Errorf("%s: missing trace event n%d %s %s %s", proto, node, layer, name, arg)
		}
		return t
	}
	post := at(a, obs.LayerHostIF, "post", "")
	isr := at(a, obs.LayerHostIF, "cab_isr", "")
	req := at(a, obs.LayerMailbox, "get", proto+".send")
	dltx := at(a, obs.LayerDatalink, "tx", "")
	arrive := at(b, obs.LayerCAB, "rx.arrive", "")
	dlrx := at(b, obs.LayerDatalink, "rx", "")
	deliver := at(b, obs.Layer(proto), "deliver", "")
	if err != nil {
		return nil, err
	}
	us := func(from, to sim.Time) float64 { return sim.Duration(to - from).Micros() }
	r := &Fig6Result{
		TotalUS: us(an.Start, an.RxEnd),
		Stages: []Fig6Stage{
			{"host: create message", us(an.Start, an.CreateDone), BucketHost},
			{"host: begin_put/write/end_put", us(an.CreateDone, post), BucketInterface},
			{"host->CAB: doorbell + CAB ISR", us(post, isr), BucketInterface},
			{"CAB1: wake " + proto + " thread", us(isr, req), BucketInterface},
			{"CAB1: transport + datalink out", us(req, dltx), BucketCAB},
			{"wire: fiber + HUB", us(dltx, arrive), BucketCAB},
			{"CAB2: start-of-packet + datalink", us(arrive, dlrx), BucketCAB},
			{"CAB2: DMA + transport deliver", us(dlrx, deliver), BucketCAB},
			{"CAB2->host: signal + poll + begin_get", us(deliver, an.RxBegin), BucketInterface},
			{"host: read message", us(an.RxBegin, an.ReadDone), BucketHost},
			{"host: end_get", us(an.ReadDone, an.RxEnd), BucketInterface},
		},
	}
	var host, iface, cab float64
	for _, s := range r.Stages {
		switch s.Bucket {
		case BucketHost:
			host += s.US
		case BucketInterface:
			iface += s.US
		case BucketCAB:
			cab += s.US
		}
	}
	r.HostPct = 100 * host / r.TotalUS
	r.InterfacePct = 100 * iface / r.TotalUS
	r.CABPct = 100 * cab / r.TotalUS
	return r, nil
}

// Fig6 sends one 4-byte datagram host-to-host with a Marks sink installed
// and attributes every microsecond of the one-way path.
func Fig6(cost *model.CostModel) (*Fig6Result, error) {
	if cost == nil {
		cost = model.Default1990()
	}
	cl, a, b := newCluster(cost, false)
	defer cl.Close()
	marks := traceMarks(cl)

	boxB := b.Mailboxes.Create("sink")
	addrB := wire.MailboxAddr{Node: b.ID, Box: boxB.ID()}
	done := false
	var an StageAnchors

	a.Host.Run("sender", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		// Let the runtime boot (protocol threads park) before measuring.
		t.Sleep(5 * sim.Millisecond)
		an.Start = t.Now()
		// The paper's "host creating the message": build the message
		// content, then hand it to the datagram protocol (the two-phase
		// put into mapped CAB memory is host-CAB interface time).
		t.Compute(cost.HostMessageCreate)
		an.CreateDone = t.Now()
		a.Transports.Datagram.Send(ctx, addrB, 0, []byte{1, 2, 3, 4}, nil)
	})
	b.Host.Run("receiver", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		m := boxB.BeginGetPoll(ctx)
		an.RxBegin = t.Now()
		var buf [4]byte
		m.Read(ctx, 0, buf[:])
		t.Compute(cost.HostMessageRead)
		an.ReadDone = t.Now()
		boxB.EndGet(ctx, m)
		an.RxEnd = t.Now()
		done = true
	})
	if err := drive(cl, &done); err != nil {
		return nil, err
	}
	res, err := OneWayStages("datagram", marks, int(a.ID), int(b.ID), an)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	res.Metrics = snapshot(cl)
	return res, nil
}

// Format renders the breakdown with the paper anchors.
func (r *Fig6Result) Format() string {
	out := "Figure 6: one-way host-to-host datagram latency breakdown\n"
	for _, s := range r.Stages {
		out += fmt.Sprintf("  %-36s %7.1f us\n", s.Name, s.US)
	}
	out += fmt.Sprintf("  %-36s %7.1f us\n", "TOTAL", r.TotalUS)
	out += fmt.Sprintf("  buckets: host %.0f%%, host-CAB interface %.0f%%, CAB-to-CAB %.0f%%\n",
		r.HostPct, r.InterfacePct, r.CABPct)
	out += "paper anchors: total 163 us; ~20% host / ~40% interface / ~40% CAB-to-CAB\n"
	return out
}
