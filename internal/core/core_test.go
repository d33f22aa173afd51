package core

import (
	"net"
	"strings"
	"testing"

	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
)

func startServer(t *testing.T) string {
	t.Helper()
	_, addr := startEdgeServer(t)
	return addr
}

// startEdgeServer is startServer for a test that reads the server's metrics.
func startEdgeServer(t *testing.T) (*edge.Server, string) {
	t.Helper()
	srv, err := NewEdgeServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func tinyModel(t *testing.T) *nn.Network {
	t.Helper()
	m, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var labels = []string{"cat", "dog", "bird"}

// fastNetwork removes the 30 Mbps default so the partition chooser sees a
// LAN; keeps tests' dynamic decisions deterministic.
var fastNetwork = netem.Profile{BandwidthBitsPerSec: 1e9, Latency: 0}

func classify(t *testing.T, s *Session, seed uint64) string {
	t.Helper()
	img := mlapp.SyntheticImage(3*16*16, seed)
	got, err := s.Classify(img)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	return got
}

func TestSessionModesAgree(t *testing.T) {
	addr := startServer(t)
	model := tinyModel(t)
	const seed = 11

	local, err := NewSession(SessionConfig{
		AppID: "s-local", ModelName: "tiny", Model: model, Labels: labels, Mode: ModeLocal,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := classify(t, local, seed)

	full, err := NewSession(SessionConfig{
		AppID: "s-full", ModelName: "tiny", Model: model, Labels: labels,
		Mode: ModeFull, Conn: dial(t, addr), PreSend: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.WaitForModelUpload(); err != nil {
		t.Fatal(err)
	}
	if got := classify(t, full, seed); got != want {
		t.Errorf("full mode = %q, want %q", got, want)
	}
	if st := full.Stats(); st.Offloads != 1 {
		t.Errorf("full mode offloads = %d, want 1", st.Offloads)
	}

	partial, err := NewSession(SessionConfig{
		AppID: "s-part", ModelName: "tiny", Model: model, Labels: labels,
		Mode: ModePartial, Conn: dial(t, addr), PreSend: true, SplitLabel: "1st_pool",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.WaitForModelUpload(); err != nil {
		t.Fatal(err)
	}
	if got := classify(t, partial, seed); got != want {
		t.Errorf("partial mode = %q, want %q", got, want)
	}
	if got := partial.SplitLabel(); got != "1st_pool" {
		t.Errorf("split = %q, want 1st_pool", got)
	}
	if st := partial.Stats(); st.Offloads != 1 {
		t.Errorf("partial mode offloads = %d, want 1", st.Offloads)
	}
}

// TestSessionsShareOneUpload: two sessions of one model on one standalone
// server, with nothing configured, upload the weights once. The second
// session's pre-send offers the model's content key and the server answers
// it from its store; both sessions then classify alike.
func TestSessionsShareOneUpload(t *testing.T) {
	srv, addr := startEdgeServer(t)
	model := tinyModel(t)
	var sessions []*Session
	for _, appID := range []string{"share-first", "share-second"} {
		s, err := NewSession(SessionConfig{
			AppID: appID, ModelName: "tiny", Model: model, Labels: labels,
			Mode: ModeFull, Conn: dial(t, addr), PreSend: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitForModelUpload(); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	first, second := sessions[0].Stats(), sessions[1].Stats()
	if wire := srv.Metrics().PreSendPackedBytes; first.PreSendBytes != wire || wire >= model.ModelBytes() || first.RefPreSendMisses != 1 {
		t.Errorf("first session uploaded %d B over %d misses, want the %d packed bytes the server counted, over 1", first.PreSendBytes, first.RefPreSendMisses, wire)
	}
	if second.PreSendBytes != 0 || second.RefPreSendHits != 1 {
		t.Errorf("second session uploaded %d B with %d hits, want 0 B and 1 hit", second.PreSendBytes, second.RefPreSendHits)
	}
	if a, b := classify(t, sessions[0], 5), classify(t, sessions[1], 5); a != b {
		t.Errorf("sessions answer %q and %q for one image", a, b)
	}
}

func TestSessionPartialDynamicSplit(t *testing.T) {
	addr := startServer(t)
	s, err := NewSession(SessionConfig{
		AppID: "s-dyn", ModelName: "tiny", Model: tinyModel(t), Labels: labels,
		Mode: ModePartial, Conn: dial(t, addr), Network: fastNetwork,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.SplitLabel() == "" || s.SplitLabel() == "Input" {
		t.Errorf("dynamic partial split = %q, want a real layer boundary", s.SplitLabel())
	}
	if got := classify(t, s, 5); got == "" {
		t.Error("no result")
	}
}

func TestSessionAutoMode(t *testing.T) {
	addr := startServer(t)
	model := tinyModel(t)

	// Unconstrained auto on a fast network: full offloading wins.
	auto, err := NewSession(SessionConfig{
		AppID: "s-auto", ModelName: "tiny", Model: model, Labels: labels,
		Mode: ModeAuto, Conn: dial(t, addr), Network: fastNetwork,
	})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Mode() != ModeFull {
		t.Errorf("auto resolved to %s, want full", auto.Mode())
	}

	// With the privacy constraint, auto must keep at least one layer
	// local.
	private, err := NewSession(SessionConfig{
		AppID: "s-auto-p", ModelName: "tiny", Model: model, Labels: labels,
		Mode: ModeAuto, Conn: dial(t, addr), Network: fastNetwork, RequireDenature: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if private.Mode() != ModePartial {
		t.Errorf("private auto resolved to %s, want partial", private.Mode())
	}
	if got := classify(t, private, 21); got == "" {
		t.Error("no result")
	}
	// Privacy invariant: image dropped before offload.
	if v, _ := private.App().Global(mlapp.GlobalImage); v != nil {
		t.Error("image should be nil after partial inference")
	}
}

func TestSessionLocalFallback(t *testing.T) {
	addr := startServer(t)
	conn := dial(t, addr)
	conn.Close()
	s, err := NewSession(SessionConfig{
		AppID: "s-fb", ModelName: "tiny", Model: tinyModel(t), Labels: labels,
		Mode: ModeFull, Conn: conn, LocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := classify(t, s, 9); got == "" {
		t.Error("fallback produced no result")
	}
	if st := s.Stats(); st.LocalFallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.LocalFallbacks)
	}
}

func TestSessionValidation(t *testing.T) {
	model := tinyModel(t)
	if _, err := NewSession(SessionConfig{ModelName: "x", Model: model, Mode: ModeFull}); err == nil {
		t.Error("offloading mode without conn should fail")
	}
	if _, err := NewSession(SessionConfig{Mode: ModeLocal}); err == nil {
		t.Error("missing model should fail")
	}
	if _, err := NewSession(SessionConfig{ModelName: "x", Model: model}); err == nil {
		t.Error("missing mode should fail")
	}
	if _, err := NewSession(SessionConfig{
		AppID: "a", ModelName: "x", Model: model, Mode: ModePartial,
		Conn: &client.Conn{}, SplitLabel: "42nd_conv",
	}); err == nil || !strings.Contains(err.Error(), "partition point") {
		t.Errorf("bad split label err = %v", err)
	}
}

func TestDefaultCatalog(t *testing.T) {
	cat, err := DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 {
		t.Errorf("catalog has %d bundles, want 2", cat.Len())
	}
	full := mlapp.FullRegistry()
	if _, ok := cat.Lookup(full.CodeHash()); !ok {
		t.Error("full bundle missing")
	}
}

func TestModeString(t *testing.T) {
	tests := []struct {
		mode Mode
		want string
	}{
		{ModeLocal, "local"}, {ModeFull, "full"}, {ModePartial, "partial"},
		{ModeAuto, "auto"}, {Mode(42), "mode(42)"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("%d = %q, want %q", int(tt.mode), got, tt.want)
		}
	}
}

// TestScreenUpdateFromServer demonstrates the paper's claim that the edge
// server can even change the client's screen: the result snapshot carries a
// DOM mutation made at the server.
func TestScreenUpdateFromServer(t *testing.T) {
	addr := startServer(t)
	s, err := NewSession(SessionConfig{
		AppID: "s-dom", ModelName: "tiny", Model: tinyModel(t), Labels: labels,
		Mode: ModeFull, Conn: dial(t, addr),
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s.App().DOM().Find(mlapp.ResultID).Text
	got := classify(t, s, 30)
	after := s.App().DOM().Find(mlapp.ResultID).Text
	if after == before || after != got {
		t.Errorf("DOM result = %q -> %q, want the server-computed %q", before, after, got)
	}
}
