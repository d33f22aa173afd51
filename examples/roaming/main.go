// Roaming between edge servers — the paper's §I mobility claim, live: "when
// a mobile client moves to a different service area, snapshot-based
// offloading can readily work on a new edge server since it has no
// dependence on the previous server."
//
// The client offloads to the nearest of two edge servers; when that server
// disappears mid-session, the roamer detects it, switches to the other one,
// the offloader re-pre-sends its model, and inference continues.
//
//	go run ./examples/roaming
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"websnap"
	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/protocol"
	"websnap/internal/roam"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func startEdge() (addr string, shutdown func(), err error) {
	srv, err := websnap.NewEdgeServer(nil)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

func run() error {
	addrA, shutdownA, err := startEdge()
	if err != nil {
		return err
	}
	addrB, shutdownB, err := startEdge()
	if err != nil {
		return err
	}
	defer shutdownB()
	fmt.Printf("edge servers: A=%s (current area)  B=%s (next area)\n", addrA, addrB)

	// Bias probes so A wins while alive — "A is the nearby hotspot".
	roamer, err := roam.New(roam.Config{
		Servers: []string{addrA, addrB},
		Probe: func(addr string) (time.Duration, *protocol.LoadHint, error) {
			start := time.Now()
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return 0, nil, err
			}
			c.Close()
			if addr == addrA {
				return time.Since(start), nil, nil
			}
			return time.Since(start) + 50*time.Millisecond, nil, nil
		},
	})
	if err != nil {
		return err
	}
	conn, err := roamer.Connect()
	if err != nil {
		return err
	}
	defer roamer.Close()
	cur, _ := roamer.Current()
	fmt.Printf("connected to %s\n", cur)

	model, err := websnap.BuildTinyNet("tinynet", 3)
	if err != nil {
		return err
	}
	app, err := mlapp.NewFullApp("roaming-demo", "tinynet", model, []string{"cat", "dog", "bird"})
	if err != nil {
		return err
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
	})
	if err != nil {
		return err
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		return err
	}

	classify := func(seed uint64) (string, error) {
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
			return "", err
		}
		app.DispatchEvent(websnap.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			return "", err
		}
		return mlapp.Result(app), nil
	}

	result, err := classify(1)
	if err != nil {
		return err
	}
	fmt.Printf("inference on A: %q\n", result)

	fmt.Println("\n-- client leaves A's service area (server A gone) --")
	shutdownA()
	newConn, switched, err := roamer.Evaluate()
	if err != nil {
		return err
	}
	cur, _ = roamer.Current()
	fmt.Printf("roamer switched=%v, now on %s\n", switched, cur)
	if err := off.Retarget(newConn); err != nil {
		return err
	}
	if err := off.WaitForAcks(); err != nil {
		return err
	}
	fmt.Println("model re-pre-sent to B (no state carried over — none needed)")

	result, err = classify(1)
	if err != nil {
		return err
	}
	fmt.Printf("inference on B: %q (same input, same answer)\n", result)
	return nil
}
