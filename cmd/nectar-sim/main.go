// Command nectar-sim builds a Nectar installation from flags, drives an
// all-pairs traffic pattern over a chosen transport, and prints per-node
// and fabric statistics — a quick way to watch the simulated hardware and
// runtime at work on one HUB or a chain of HUBs (fabric.Chain).
//
// Examples:
//
//	nectar-sim -nodes 4 -msgs 50 -size 1024 -proto rmp
//	nectar-sim -nodes 6 -hubs 2 -proto datagram -size 256
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nectar"
	"nectar/internal/fabric"
	"nectar/internal/hw/hub"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nectar-sim:", err)
		os.Exit(2)
	}
}

// run parses args, drives the traffic and writes the report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("nectar-sim", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "number of host/CAB pairs")
	hubs := fs.Int("hubs", 1, "number of HUBs (connected in a chain)")
	msgs := fs.Int("msgs", 20, "messages per source-destination pair")
	size := fs.Int("size", 1024, "message size in bytes")
	proto := fs.String("proto", "rmp", "transport: datagram | rmp")
	rxThread := fs.Bool("rxthread", false, "protocol input in a thread instead of at interrupt time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *proto != "datagram" && *proto != "rmp" {
		return fmt.Errorf("unknown -proto %q", *proto)
	}
	if *hubs < 1 {
		return fmt.Errorf("-hubs %d: need at least one HUB", *hubs)
	}

	cl := nectar.NewCluster(&nectar.Config{
		RxThreadMode: *rxThread,
		Topology:     fabric.Chain(*hubs, hub.DefaultPorts),
	})
	if *nodes > cl.NodeCount() {
		return fmt.Errorf("-nodes %d: %d HUB(s) attach at most %d", *nodes, *hubs, cl.NodeCount())
	}
	var ns []*nectar.Node
	var sinks []*mailbox.Mailbox
	for i := 0; i < *nodes; i++ {
		n := cl.AddNode()
		ns = append(ns, n)
		sink := n.Mailboxes.Create(fmt.Sprintf("sim.sink%d", i))
		sink.SetCapacity(1 << 20)
		sinks = append(sinks, sink)
	}

	expect := (*nodes - 1) * *msgs // messages each node will receive
	remaining := *nodes
	var sendErr error
	// Receivers: CAB threads draining each sink.
	for i, n := range ns {
		i, n := i, n
		n.CAB.Sched.Fork("drain", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for k := 0; k < expect; k++ {
				m := sinks[i].BeginGet(ctx)
				sinks[i].EndGet(ctx, m)
			}
			remaining--
		})
	}
	// Senders: every node blasts every other node.
	for i, n := range ns {
		i, n := i, n
		n.CAB.Sched.Fork("blast", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			buf := make([]byte, *size)
			for j := range ns {
				if j == i {
					continue
				}
				addr := wire.MailboxAddr{Node: ns[j].ID, Box: sinks[j].ID()}
				for k := 0; k < *msgs; k++ {
					switch *proto {
					case "datagram":
						_ = n.Transports.Datagram.SendDirect(ctx, addr, 0, buf)
						t.Sleep(100 * sim.Microsecond) // pace unreliable traffic
					case "rmp":
						if st := n.Transports.RMP.SendBlocking(ctx, addr, 0, buf); st != 1 && sendErr == nil {
							sendErr = fmt.Errorf("rmp send failed: status %d", st)
						}
					}
				}
			}
		})
	}

	start := cl.Now()
	for remaining > 0 {
		if err := cl.RunFor(10 * sim.Millisecond); err != nil {
			return err
		}
		if sendErr != nil {
			return sendErr
		}
		if sim.Duration(cl.Now()-start) > 300*sim.Second {
			return fmt.Errorf("traffic did not complete (check -proto/-msgs)")
		}
	}
	elapsed := sim.Duration(cl.Now() - start)

	totalBytes := *nodes * (*nodes - 1) * *msgs * *size
	fmt.Fprintf(w, "%d nodes on %d HUB(s), %s, %d x %dB per pair\n", *nodes, *hubs, *proto, *msgs, *size)
	fmt.Fprintf(w, "virtual time: %v   aggregate goodput: %.1f Mbit/s\n",
		elapsed, float64(totalBytes)*8/elapsed.Seconds()/1e6)
	fmt.Fprintf(w, "\n%-6s %10s %10s %10s %12s %12s\n", "node", "tx", "rx", "crcErr", "switches", "interrupts")
	for i, n := range ns {
		tx, rx, crcErr := n.CAB.Stats()
		fmt.Fprintf(w, "cab%-3d %10d %10d %10d %12d %12d\n",
			i+1, tx, rx, crcErr, n.CAB.Sched.Switches(), n.CAB.Sched.Interrupts())
	}
	for i, h := range cl.Hubs {
		fmt.Fprintf(w, "hub%-3d forwarded %d frames\n", i, h.Forwarded())
	}
	return nil
}
