// Pipeline-parallel multi-hop partial inference: the K-way generalization
// of the paper's single split point. The client keeps the front of the
// network (denaturing the input), then a chain of edge servers each
// executes its assigned layer range and relays the boundary tensor to the
// next hop; the cut set is chosen by a dynamic program over per-hop
// compute, per-link bandwidth, and live queue hints.
//
// This example runs a client plus three in-process edge servers (two
// relays and a terminal hop), plans a 3-hop chain, executes it, and prints
// the chosen cut set with per-hop timings from the merged trace — then
// kills the middle hop and shows the executor re-planning around it.
//
//	go run ./examples/pipeline_chain
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"websnap"
	"websnap/internal/edge"
	"websnap/internal/protocol"
	"websnap/internal/roam"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// startEdge runs a chain-capable edge server that advertises its own
// listen address so relays and spans carry the hop's identity.
func startEdge() (addr string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	cat, err := websnap.DefaultCatalog()
	if err != nil {
		ln.Close()
		return "", nil, err
	}
	srv, err := edge.NewServer(edge.Config{Catalog: cat, Installed: true, AdvertiseAddr: ln.Addr().String()})
	if err != nil {
		ln.Close()
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	return ln.Addr().String(), func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}, nil
}

func run() error {
	var addrs []string
	var shutdowns []func()
	for i := 0; i < 3; i++ {
		addr, shutdown, err := startEdge()
		if err != nil {
			return err
		}
		defer shutdown()
		addrs = append(addrs, addr)
		shutdowns = append(shutdowns, shutdown)
	}
	fmt.Printf("edge chain: %v\n", addrs)

	model, err := websnap.BuildTinyNet("tinynet", 3)
	if err != nil {
		return err
	}
	flight := telemetry.NewFlightRecorder(0)
	ex, err := roam.NewChainExecutor(roam.ChainConfig{
		AppID:           "pipeline-demo",
		ModelName:       "tinynet",
		Model:           model,
		Depth:           3,
		RequireDenature: true,
		Candidates: func() []protocol.FleetServer {
			out := make([]protocol.FleetServer, len(addrs))
			for i, a := range addrs {
				out[i] = protocol.FleetServer{Addr: a}
			}
			return out
		},
		Flight: flight,
	})
	if err != nil {
		return err
	}
	defer ex.Close()

	in, err := tensor.New(model.InputShape()...)
	if err != nil {
		return err
	}
	data := in.Data()
	for i := range data {
		data[i] = float32(i%17)/8 - 1
	}

	local, err := model.Forward(in)
	if err != nil {
		return err
	}

	out, report, err := ex.Execute(in)
	if err != nil {
		return err
	}
	printPlan(model.NumLayers(), report)
	printHopTimings(report)
	fmt.Printf("bit-identical to local execution: %v\n\n", identical(out, local))

	fmt.Println("-- middle hop dies; next request re-plans around it --")
	shutdowns[1]()
	out, report, err = ex.Execute(in)
	if err != nil {
		return err
	}
	fmt.Printf("re-plans this request: %d (flight recorder captured %d)\n", report.Replans, replanCaptures(flight))
	printPlan(model.NumLayers(), report)
	printHopTimings(report)
	fmt.Printf("bit-identical to local execution: %v\n", identical(out, local))
	return nil
}

// printPlan renders the chosen cut set: the client's front range and each
// hop's layer range.
func printPlan(layers int, report roam.ChainReport) {
	fmt.Printf("path=%s  cut set over %d layers (predicted %v, measured %v):\n",
		report.Path, layers, report.Predicted.Round(time.Microsecond), report.Measured.Round(time.Microsecond))
	if len(report.Hops) == 0 {
		fmt.Println("  local execution only")
		return
	}
	fmt.Printf("  client     layers [0,%d)\n", report.Hops[0].From)
	for i, h := range report.Hops {
		fmt.Printf("  hop %d      layers [%d,%d) on %s\n", i+1, h.From, h.To, h.Addr)
	}
}

// printHopTimings walks the merged span tree: each hop's chain_exec span
// nests the next hop's, with queue/execute children.
func printHopTimings(report roam.ChainReport) {
	span := report.Span
	hop := 1
	for span != nil {
		var queue, exec time.Duration
		var next *protocol.SpanNode
		for _, c := range span.Children {
			switch c.Op {
			case "queue":
				queue = time.Duration(c.Micros) * time.Microsecond
			case "execute":
				exec = time.Duration(c.Micros) * time.Microsecond
			case protocol.SpanChainExec:
				next = c
			}
		}
		fmt.Printf("  hop %d time  %-21s total=%v queue=%v execute=%v\n",
			hop, span.Addr, (time.Duration(span.Micros) * time.Microsecond).Round(time.Microsecond), queue, exec)
		span = next
		hop++
	}
}

func identical(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a, b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

func replanCaptures(f *telemetry.FlightRecorder) int {
	n := 0
	for _, e := range f.Dump() {
		if e.Reason == telemetry.FlightReplan {
			n++
		}
	}
	return n
}
