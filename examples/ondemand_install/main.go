// On-demand installation (paper §III.B.3): a mobile client meets an edge
// server that does not have the offloading system installed. The client
// ships a compressed VM overlay (offloading server + browser + libraries);
// the edge server synthesizes a VM instance from it on top of its base
// image, and from then on serves snapshot offloads normally.
//
//	go run ./examples/ondemand_install
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"websnap"
	"websnap/internal/vmsynth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// An edge server WITHOUT the offloading system pre-installed. It
	// only has a base VM image and a synthesizer.
	catalog, err := websnap.DefaultCatalog()
	if err != nil {
		return err
	}
	server, err := websnap.NewEdgeServerWithConfig(websnap.EdgeConfig{
		Catalog:   catalog,
		Installed: false,
		Synthesizer: vmsynth.NewSynthesizer(
			vmsynth.BaseImage{Name: "ubuntu-12.04", Bytes: 8 << 30}),
	})
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

	model, err := websnap.BuildTinyNet("tinynet", 3)
	if err != nil {
		return err
	}
	conn, err := websnap.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	// Offloading against the virgin server fails: nothing is installed.
	if _, err := conn.PreSendModel("demo", "tinynet", model, ""); err != nil {
		fmt.Printf("before installation, the edge server refuses: %v\n", err)
	}

	// Build the VM overlay. Real deployments ship ~100 MB (browser +
	// libs + server + model); the demo scales the blobs down 100x so it
	// finishes instantly while exercising the same code path (real flate
	// compression, real synthesis).
	const scale = 100
	overlay, err := vmsynth.BuildOverlay(
		syntheticComponent("browser", vmsynth.BrowserBytes/scale),
		syntheticComponent("libs", vmsynth.LibraryBytes/scale),
		syntheticComponent("offload-server", vmsynth.ServerBytes/scale),
	)
	if err != nil {
		return err
	}
	fmt.Printf("VM overlay: %d components, %.1f MB raw -> %.1f MB compressed\n",
		len(overlay.Components), float64(overlay.RawBytes)/(1<<20),
		float64(overlay.CompressedBytes)/(1<<20))

	start := time.Now()
	synthTime, err := conn.InstallOverlay("ubuntu-12.04", overlay.Compressed)
	if err != nil {
		return err
	}
	fmt.Printf("VM synthesis done in %v wall clock (modeled synthesis cost: %v)\n",
		time.Since(start).Round(time.Millisecond), synthTime)

	// Now the standard snapshot-based offloading flow works.
	session, err := websnap.NewSession(websnap.SessionConfig{
		AppID:     "demo",
		ModelName: "tinynet",
		Model:     model,
		Labels:    []string{"cat", "dog", "bird"},
		Mode:      websnap.ModeFull,
		Conn:      conn,
		PreSend:   true,
	})
	if err != nil {
		return err
	}
	if err := session.WaitForModelUpload(); err != nil {
		return err
	}
	img := make(websnap.Float32Array, 3*16*16)
	for i := range img {
		img[i] = float32(i%251) / 251
	}
	result, err := session.Classify(img)
	if err != nil {
		return err
	}
	fmt.Printf("after installation, offloaded inference works: %q\n", result)
	return nil
}

// syntheticComponent fabricates component bytes with binary-like (0.38)
// compressibility: repeated symbol blocks mixed with incompressible noise.
func syntheticComponent(name string, size int64) vmsynth.Component {
	data := make([]byte, size)
	s := uint64(len(name)) + 7
	const block = 1024
	for i := range data {
		if (i/block)%8 < 5 { // 5/8 highly-redundant blocks, 3/8 noise
			data[i] = byte(i % 16)
		} else {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			data[i] = byte(s)
		}
	}
	return vmsynth.Component{
		Name: name, RawBytes: size,
		CompressRatio: vmsynth.BinaryCompressRatio, Data: data,
	}
}
