package core

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/tensor"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// stemModel is AgeNet's stem — conv1 7×7/4, ReLU, 3×3/2 max-pool: the
// 96×28×28 feature map the paper's partial offload ships from 1st_pool — over
// a rear small enough to pre-send in tens of milliseconds at 30 Mbit/s (and,
// at 117 KB that travel packed as 97 KB, large enough for that pre-send to
// read the link).
func stemModel(t *testing.T) *nn.Network {
	t.Helper()
	var layers []nn.Layer
	add := func(l nn.Layer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	add(nn.NewInput("data", 3, 227, 227))
	add(nn.NewConv("conv1", 3, 96, 7, 4, 0))
	add(nn.NewReLU("relu1"), nil)
	add(nn.NewPool("pool1", nn.MaxPool, 3, 2, 0))
	add(nn.NewConv("conv2", 96, 12, 3, 1, 1))
	add(nn.NewReLU("relu2"), nil)
	add(nn.NewPool("pool2", nn.MaxPool, 2, 2, 0))
	add(nn.NewFC("fc", 12*14*14, 8))
	add(nn.NewSoftmax("prob"), nil)
	m, err := nn.NewNetwork("stem", layers...)
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(23)
	return m
}

// answer is what a session shows after a Classify: the label and the scores
// behind it.
type answer struct {
	label  string
	scores webapp.Float32Array
}

func answerOf(t *testing.T, s *Session, img webapp.Float32Array) answer {
	t.Helper()
	label, err := s.Classify(img)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	v, _ := s.App().Global(mlapp.GlobalScores)
	scores, _ := v.(webapp.Float32Array)
	return answer{label, slices.Clone(scores)}
}

func (a answer) equal(b answer) bool { return a.label == b.label && slices.Equal(a.scores, b.scores) }

func labelsFor(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("label_%d", i)
	}
	return out
}

// TestSlowLinkSessionPacksRequests is the paper's partial offload over its
// 30 Mbit/s link: with nothing configured, the pre-send reads the link slow,
// so the session's requests travel packed from the first of its three
// warm-up requests on, at half their text or less, and every answer is
// bit-identical to local execution. The same session over loopback never
// packs: its request's size is the text's. Each link gets a server of its
// own, so that each pre-send uploads the weights and seeds the estimate.
func TestSlowLinkSessionPacksRequests(t *testing.T) {
	model := stemModel(t)
	volume := tensor.Volume(model.InputShape())
	const warmup = 3

	local, err := NewSession(SessionConfig{
		AppID: "link-local", ModelName: "stem", Model: model, Labels: labelsFor(8), Mode: ModeLocal,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []answer
	for i := 0; i < warmup; i++ {
		want = append(want, answerOf(t, local, mlapp.SyntheticImage(volume, uint64(i+1))))
	}

	run := func(name string, link netem.Profile) client.Stats {
		conn, err := client.DialWrapped(startServer(t), func(c net.Conn) net.Conn { return netem.Shape(c, link) })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		s, err := NewSession(SessionConfig{
			AppID: "link-" + name, ModelName: "stem", Model: model, Labels: labelsFor(8),
			Mode: ModePartial, SplitLabel: "1st_pool", Conn: conn, PreSend: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitForModelUpload(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warmup; i++ {
			if got := answerOf(t, s, mlapp.SyntheticImage(volume, uint64(i+1))); !got.equal(want[i]) {
				t.Errorf("%s, request %d: answer %q differs from local execution's %q (or its scores do)", name, i, got.label, want[i].label)
			}
		}
		return s.Stats()
	}
	fast := run("loopback", netem.Unlimited)
	slow := run("wifi", netem.WiFi30Mbps)
	t.Logf("loopback: %.0f MB/s, %d B/request; 30 Mbit/s: %.2f MB/s, %d B/request (%.3f×)",
		fast.UplinkBytesPerSec/1e6, fast.LastSnapshotBytes, slow.UplinkBytesPerSec/1e6, slow.LastSnapshotBytes,
		float64(slow.LastSnapshotBytes)/float64(fast.LastSnapshotBytes))
	if fast.PackedOffloads != 0 {
		t.Errorf("%d of %d loopback requests travelled packed (estimate %.3g B/s)", fast.PackedOffloads, fast.Offloads, fast.UplinkBytesPerSec)
	}
	if slow.Offloads != warmup || slow.PackedOffloads != warmup {
		t.Errorf("%d of %d requests over 30 Mbit/s travelled packed (estimate %.3g B/s), want all %d",
			slow.PackedOffloads, slow.Offloads, slow.UplinkBytesPerSec, warmup)
	}
	if 2*slow.LastSnapshotBytes > fast.LastSnapshotBytes {
		t.Errorf("packed request %d B, want at most half of its %d B of text", slow.LastSnapshotBytes, fast.LastSnapshotBytes)
	}
}

// TestFastLinkNeverPacks: over loopback the packed encoding is never chosen —
// not for TinyNet's 5 KB body, too small for any link to make it worth a
// codec pass; not for GoogLeNet's 0.8 MB one; not with two int8 GoogLeNet
// clients contending for one multiplexed connection, where a request's round
// trip includes waiting for the sibling's upload. A count of packed requests,
// not a timing.
func TestFastLinkNeverPacks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs GoogLeNet")
	}
	tiny := tinyModel(t)
	googlenet, err := models.Build(models.GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 3
	for _, c := range []struct {
		name    string
		model   *nn.Network
		quality nn.Precision
		clients int
	}{
		{"tinynet", tiny, nn.PrecFloat32, 1},
		{"googlenet", googlenet, nn.PrecFloat32, 1},
		{"googlenet-int8-mux2", googlenet, nn.PrecInt8, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if testutil.RaceDetector && c.model == googlenet {
				t.Skip("a 28 MB loopback pre-send under the detector reads within 2× of break-even: its slowdown is not the link under test")
			}
			conn := dial(t, startServer(t))
			out, err := c.model.OutputShape()
			if err != nil {
				t.Fatal(err)
			}
			volume := tensor.Volume(c.model.InputShape())
			var wg sync.WaitGroup
			stats := make([]client.Stats, c.clients)
			for i := range stats {
				s, err := NewSession(SessionConfig{
					AppID: fmt.Sprintf("fast-%s-%d", c.name, i), ModelName: c.name, Model: c.model,
					Labels: labelsFor(out[len(out)-1]), Mode: ModeFull, Conn: conn, PreSend: true, Quality: c.quality,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.WaitForModelUpload(); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for r := 0; r < requests; r++ {
						if _, err := s.Classify(mlapp.SyntheticImage(volume, uint64(r+1))); err != nil {
							t.Errorf("client %d, request %d: %v", i, r, err)
							return
						}
					}
					stats[i] = s.Stats()
				}(i)
			}
			wg.Wait()
			for i, st := range stats {
				t.Logf("client %d: uplink estimate %.0f MB/s, %d B/request", i, st.UplinkBytesPerSec/1e6, st.LastSnapshotBytes)
				if st.Offloads != requests || st.PackedOffloads != 0 {
					t.Errorf("client %d: %d of %d requests travelled packed (estimate %.3g B/s), want none of %d",
						i, st.PackedOffloads, st.Offloads, st.UplinkBytesPerSec, requests)
				}
			}
		})
	}
}
