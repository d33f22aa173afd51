// Quickstart: run an ML web app on the "client", offload its DNN inference
// to an in-process edge server over real TCP, and read the result the
// server wrote into the app's DOM.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"websnap"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Start an edge server (normally a separate machine: cmd/edged).
	server, err := websnap.NewEdgeServer(nil)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- server.Serve(ln) }()
	defer func() {
		server.Close()
		<-done
	}()

	// 2. The client device: a small CNN-based image recognition web app.
	model, err := websnap.BuildTinyNet("tinynet", 3)
	if err != nil {
		return err
	}
	conn, err := websnap.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	session, err := websnap.NewSession(websnap.SessionConfig{
		AppID:     "quickstart",
		ModelName: "tinynet",
		Model:     model,
		Labels:    []string{"cat", "dog", "bird"},
		Mode:      websnap.ModeFull, // offload the whole inference handler
		Conn:      conn,
		PreSend:   true, // ship the model when the app starts (§III.B.1)
	})
	if err != nil {
		return err
	}
	if err := session.WaitForModelUpload(); err != nil {
		return err
	}

	// 3. "Click the inference button": the snapshot travels to the edge
	// server, the DNN runs there, and what it changed comes back.
	img := syntheticPhoto(model.InputShape())
	start := time.Now()
	result, err := session.Classify(img)
	if err != nil {
		return err
	}
	fmt.Printf("inference result: %q (in %v, offloaded to %s)\n",
		result, time.Since(start).Round(time.Millisecond), ln.Addr())

	st := session.Stats()
	fmt.Printf("snapshot shipped: %d bytes up, %d bytes back (model pre-sent separately: %v)\n",
		st.LastSnapshotBytes, st.LastResultBytes, !st.LastModelIncluded)
	return nil
}

// syntheticPhoto stands in for a user photo.
func syntheticPhoto(shape []int) websnap.Float32Array {
	n := 1
	for _, d := range shape {
		n *= d
	}
	img := make(websnap.Float32Array, n)
	for i := range img {
		img[i] = float32((i*37)%256) / 255
	}
	return img
}
