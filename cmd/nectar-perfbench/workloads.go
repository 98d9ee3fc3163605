package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"nectar"
	"nectar/internal/fabric"
	"nectar/internal/nectarine"
	"nectar/internal/obs"
	nproto "nectar/internal/proto/nectar"
	"nectar/internal/proto/tcp"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// The three workloads drive the simulator only through its public API:
// nectar.NewCluster, Cluster.AddNode/Node, the node transports,
// Cluster.RunFor and Cluster.MetricsSnapshot.

// step is the virtual time advanced per RunFor call; the heap is sampled
// between steps.
const step = sim.Millisecond

// Virtual deadlines. Ops unfinished at the deadline count as failed.
// host-stream and fabric-lossy finish far inside theirs; cab-rpc reaches
// its deadline because its server stalls (DEFECTS.md).
const (
	streamDeadline = 30 * sim.Second
	rpcDeadline    = 4 * sim.Second
	fabricDeadline = 10 * sim.Second
)

// op is one simulated result: a delivered message or a completed call.
type op struct {
	issued sim.Time // virtual time the op was issued (0 if never)
	done   sim.Time // virtual completion time (0 if unfinished)
	ok     bool
	bytes  int // payload the op carries when it succeeds
}

// simOut is everything a repetition produces in virtual time.
type simOut struct {
	ops    []op
	groups int // ops come in this many equal groups: connections, clients or flows
	wrong  []string
	snap   *obs.Snapshot

	windows      uint64
	crossShard   uint64
	routeEntries int
}

// workload is one of the benchmark's workloads; BENCHMARK.json records
// why each was chosen.
type workload struct {
	name string
	run  func(seed int64, sequential bool, m *meter) (*simOut, error)
}

var workloads = []workload{
	{"host-stream", runHostStream},
	{"cab-rpc", runCABRPC},
	{"fabric-lossy", runFabricLossy},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// drive advances the cluster in steps until done reports true or the
// virtual deadline passes.
func drive(cl *nectar.Cluster, m *meter, deadline sim.Duration, done func() bool) error {
	for !done() && sim.Duration(cl.Now()) < deadline {
		if err := m.step(cl, step); err != nil {
			return err
		}
	}
	return nil
}

// runHostStream: two host-to-host TCP connections on one HUB. Each sender
// host process writes its seeded message mix; each receiver host process
// polls, reads every byte across its VME bus and hashes the stream. A
// message counts as delivered when the receiver holds all of its bytes.
func runHostStream(seed int64, _ bool, m *meter) (*simOut, error) {
	in := genStream(seed)
	m.begin()
	var cl *nectar.Cluster
	m.time("cluster.build", func() { cl = nectar.NewCluster(nil) })
	var nodes []*nectar.Node
	m.time("cluster.materialize", func() {
		for i := 0; i < 2*streamConns; i++ {
			nodes = append(nodes, cl.AddNode())
		}
	})

	srcConn := make([]*tcp.Conn, streamConns)
	dstConn := make([]*tcp.Conn, streamConns)
	var err error
	m.time("cluster.connect", func() {
		for c := range in {
			c, a, b := c, nodes[in[c].src], nodes[in[c].dst]
			port := uint16(5000 + c)
			ln, lerr := b.TCP.Listen(port)
			if lerr != nil {
				err = lerr
				return
			}
			b.CAB.Sched.Fork("accept", threads.SystemPriority, func(t *threads.Thread) {
				dstConn[c] = ln.Accept(exec.OnCAB(t))
			})
			a.CAB.Sched.Fork("connect", threads.SystemPriority, func(t *threads.Thread) {
				conn, cerr := a.TCP.Connect(exec.OnCAB(t), wire.NodeIP(b.ID), port)
				if cerr != nil {
					cl.K.Fatalf("connect: %v", cerr)
				}
				srcConn[c] = conn
			})
		}
		connected := func() bool {
			for c := range in {
				if srcConn[c] == nil || dstConn[c] == nil {
					return false
				}
			}
			return true
		}
		for !connected() && err == nil {
			if sim.Duration(cl.Now()) > sim.Second {
				err = fmt.Errorf("host-stream: connections not up after 1 s of virtual time")
				return
			}
			err = cl.RunFor(100 * sim.Microsecond)
		}
	})
	if err != nil {
		return nil, err
	}

	out := &simOut{ops: make([]op, streamConns*streamMsgsPerConn), groups: streamConns}
	hashes := make([]uint64, streamConns)
	received := make([]int, streamConns)
	finished := 0
	for c := range in {
		c, s := c, &in[c]
		a, b := nodes[s.src], nodes[s.dst]
		ops := out.ops[c*streamMsgsPerConn : (c+1)*streamMsgsPerConn]
		ends := make([]int, len(s.sizes)) // cumulative byte offset ending message i
		total := 0
		for i, n := range s.sizes {
			total += n
			ends[i] = total
			ops[i].bytes = n
		}
		b.Host.Run("drain", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			h := fnv.New64a()
			buf := make([]byte, wire.MaxPayload)
			got, next := 0, 0
			for got < total {
				msg := dstConn[c].RecvPoll(ctx)
				if msg == nil {
					break
				}
				n := msg.Len()
				msg.Read(ctx, 0, buf[:n])
				h.Write(buf[:n])
				got += n
				dstConn[c].RecvDone(ctx, msg)
				for next < len(ends) && got >= ends[next] {
					ops[next].done, ops[next].ok = t.Now(), true
					next++
				}
			}
			hashes[c], received[c] = h.Sum64(), got
			finished++
		})
		a.Host.Run("blast", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			for i := range s.sizes {
				ops[i].issued = t.Now()
				srcConn[c].Send(ctx, s.msg(i))
			}
		})
	}

	m.startOps(cl)
	if err := drive(cl, m, streamDeadline, func() bool { return finished == streamConns }); err != nil {
		return nil, err
	}
	out.snap = m.finish(cl)

	// Output check: each receiver's byte stream equals its sender's.
	for c := range in {
		h := fnv.New64a()
		want := 0
		for i := range in[c].sizes {
			h.Write(in[c].msg(i))
			want += in[c].sizes[i]
		}
		if received[c] != want || hashes[c] != h.Sum64() {
			out.wrong = append(out.wrong, fmt.Sprintf("connection %d: received %d of %d bytes, stream hash %x, want %x",
				c, received[c], want, hashes[c], h.Sum64()))
		}
	}
	out.routeEntries, _ = cl.RouteTableStats()
	return out, nil
}

// runCABRPC: four CAB-resident clients on four nodes each issue
// rpcCallsPerClient RRP calls, one at a time, to a CAB-resident server on
// the fifth node. The server's reply is the complement of the request,
// which each client checks.
func runCABRPC(seed int64, _ bool, m *meter) (*simOut, error) {
	in := genRPC(seed)
	m.begin()
	var cl *nectar.Cluster
	m.time("cluster.build", func() { cl = nectar.NewCluster(nil) })
	var nodes []*nectar.Node
	m.time("cluster.materialize", func() {
		for i := 0; i < rpcClients+1; i++ {
			nodes = append(nodes, cl.AddNode())
		}
	})

	out := &simOut{ops: make([]op, rpcClients*rpcCallsPerClient), groups: rpcClients}
	mismatches := make([]int, rpcClients)
	finished := 0
	m.time("cluster.connect", func() {
		server := nodes[in.server]
		service := server.Mailboxes.Create("perf.service")
		server.API.RunOnCAB("perf-server", func(ep *nectarine.Endpoint) {
			for {
				ep.Serve(service, rpcReply)
			}
		})
		next := 0
		for ni, node := range nodes {
			if ni == in.server {
				continue
			}
			c := next
			next++
			ops := out.ops[c*rpcCallsPerClient : (c+1)*rpcCallsPerClient]
			node.API.RunOnCAB("perf-client", func(ep *nectarine.Endpoint) {
				reply := ep.NewMailbox("perf.reply")
				for i := range ops {
					req := in.request(c, i)
					ops[i].bytes = 2 * len(req) // request and reply
					ops[i].issued = ep.Thread().Now()
					got, err := ep.Call(service.Addr(), req, reply)
					ops[i].done = ep.Thread().Now()
					if err != nil {
						continue
					}
					ops[i].ok = true
					if !bytes.Equal(got, rpcReply(req)) {
						mismatches[c]++
					}
				}
				finished++
			})
		}
	})

	m.startOps(cl)
	if err := drive(cl, m, rpcDeadline, func() bool { return finished == rpcClients }); err != nil {
		return nil, err
	}
	out.snap = m.finish(cl)

	for c, n := range mismatches {
		if n > 0 {
			out.wrong = append(out.wrong, fmt.Sprintf("client %d: %d replies differ from the service function", c, n))
		}
	}
	out.routeEntries, _ = cl.RouteTableStats()
	return out, nil
}

// runFabricLossy: 64 RMP flows between pods of a k=48 fat tree of compact
// nodes, messages of 1 KB on average, every source uplink carrying a
// seeded drop and corruption schedule. Sharded on fabricShards kernels
// with a flow-affinity partition unless sequential is set (the
// determinism reference). Each sink checks every message's content and
// order.
func runFabricLossy(seed int64, sequential bool, m *meter) (*simOut, error) {
	in := genFabric(seed)
	m.begin()
	var cl *nectar.Cluster
	m.time("cluster.build", func() {
		topo := fabric.FatTree(fabricK)
		cfg := nectar.Config{Topology: topo, Flows: in.flows, CABDataBytes: 256 << 10}
		if !sequential {
			cfg.Shards = fabricShards
			cfg.ShardOf = nectar.ShardByFlowsOnFabric(topo, fabricShards, in.flows)
		}
		cl = nectar.NewCluster(&cfg)
	})
	type ends struct{ src, dst *nectar.Node }
	flows := make([]ends, len(in.flows))
	m.time("cluster.materialize", func() {
		for f, fl := range in.flows {
			flows[f] = ends{cl.Node(fl[0]), cl.Node(fl[1])}
		}
	})

	out := &simOut{ops: make([]op, fabricFlows*fabricMsgsPerFlow), groups: fabricFlows}
	mismatches := make([]int, fabricFlows)
	done := make([]bool, fabricFlows)
	m.time("cluster.connect", func() {
		for f := range flows {
			f, src, dst := f, flows[f].src, flows[f].dst
			ops := out.ops[f*fabricMsgsPerFlow : (f+1)*fabricMsgsPerFlow]
			sched := in.faults[f]
			src.CAB.OutLink().SetFaultFn(func(seq uint64) (drop, corrupt bool) {
				if seq >= uint64(len(sched)) {
					return false, false
				}
				return sched[seq] == faultDrop, sched[seq] == faultCorrupt
			})
			sink := dst.Mailboxes.Create(fmt.Sprintf("perf.flow%d", f))
			sink.SetCapacity(wire.MaxPayload * 4)
			addr := wire.MailboxAddr{Node: dst.ID, Box: sink.ID()}
			dst.CAB.Sched.Fork("perf-sink", threads.SystemPriority, func(t *threads.Thread) {
				ctx := exec.OnCAB(t)
				for i := range ops {
					msg := sink.BeginGet(ctx)
					if !bytes.Equal(msg.Data(), in.msg(f, i)) {
						mismatches[f]++
					}
					sink.EndGet(ctx, msg)
					ops[i].done, ops[i].ok = t.Now(), true
				}
				done[f] = true
			})
			src.CAB.Sched.Fork("perf-source", threads.SystemPriority, func(t *threads.Thread) {
				ctx := exec.OnCAB(t)
				for i := range ops {
					ops[i].issued, ops[i].bytes = t.Now(), in.sizes[f][i]
					if st := src.Transports.RMP.SendBlocking(ctx, addr, 0, in.msg(f, i)); st != nproto.StatusOK {
						return // the unacknowledged messages stay unfinished
					}
				}
			})
		}
	})

	m.startOps(cl)
	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}
	if err := drive(cl, m, fabricDeadline, allDone); err != nil {
		return nil, err
	}
	out.snap = m.finish(cl)

	for f, n := range mismatches {
		if n > 0 {
			out.wrong = append(out.wrong, fmt.Sprintf("flow %d: %d messages differ from those sent", f, n))
		}
	}
	out.windows = cl.Windows()
	out.crossShard = cl.CrossShardFrames()
	out.routeEntries, _ = cl.RouteTableStats()
	return out, nil
}
