package edge

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"websnap/internal/nn"
)

// File suffixes for persisted model files — "the NN model files (including
// the description/parameters of the NN)" that the paper's server saves
// (§III.B.1).
const (
	specSuffix    = ".spec.json"
	weightsSuffix = ".weights.bin"
)

// newSessionStoreDir builds a store bounded to maxBytes and persisted under
// dir: every pre-sent model is written as a descriptor file plus a weight
// blob, and models already on disk are loaded eagerly, so a restarted edge
// server still has the models earlier sessions uploaded.
func newSessionStoreDir(dir string, maxBytes int64) (*SessionStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("edge: model dir: %w", err)
	}
	s := newSessionStore(maxBytes)
	s.dir = dir
	if err := s.loadAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// escape makes an identifier safe as a path component.
func escape(id string) string { return url.PathEscape(id) }

func unescape(comp string) (string, error) { return url.PathUnescape(comp) }

// persist writes one model's files under the store directory.
func (s *SessionStore) persist(appID, name string, net *nn.Network) error {
	appDir := filepath.Join(s.dir, escape(appID))
	if err := os.MkdirAll(appDir, 0o755); err != nil {
		return fmt.Errorf("edge: persist model: %w", err)
	}
	spec, err := nn.EncodeSpec(net)
	if err != nil {
		return err
	}
	weights, err := encodeWeights(net)
	if err != nil {
		return err
	}
	base := filepath.Join(appDir, escape(name))
	if err := os.WriteFile(base+specSuffix, spec, 0o644); err != nil {
		return fmt.Errorf("edge: persist model %q: %w", name, err)
	}
	if err := os.WriteFile(base+weightsSuffix, weights, 0o644); err != nil {
		return fmt.Errorf("edge: persist model %q: %w", name, err)
	}
	return nil
}

// encodeWeights renders a model's weight blob: the bytes a client pre-sends,
// the persisted weights file, and what a fleet peer fetches under the
// model's fingerprint.
func encodeWeights(net *nn.Network) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(net.ModelBytes()) + 8) // the weights plus magic and count
	if err := net.EncodeWeights(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadAll reads every persisted model into memory.
func (s *SessionStore) loadAll() error {
	apps, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("edge: load models: %w", err)
	}
	for _, appEntry := range apps {
		if !appEntry.IsDir() {
			continue
		}
		appID, err := unescape(appEntry.Name())
		if err != nil {
			return fmt.Errorf("edge: load models: bad app dir %q: %w", appEntry.Name(), err)
		}
		appDir := filepath.Join(s.dir, appEntry.Name())
		files, err := os.ReadDir(appDir)
		if err != nil {
			return fmt.Errorf("edge: load models: %w", err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f.Name(), specSuffix) {
				continue
			}
			escName := strings.TrimSuffix(f.Name(), specSuffix)
			name, err := unescape(escName)
			if err != nil {
				return fmt.Errorf("edge: load models: bad model file %q: %w", f.Name(), err)
			}
			net, err := loadModel(appDir, escName)
			if err != nil {
				return fmt.Errorf("edge: load model %q for app %q: %w", name, appID, err)
			}
			s.putModel(appID, name, nn.Fingerprint(net), net)
		}
	}
	return nil
}

func loadModel(appDir, escName string) (*nn.Network, error) {
	spec, err := os.ReadFile(filepath.Join(appDir, escName+specSuffix))
	if err != nil {
		return nil, err
	}
	net, err := nn.DecodeSpec(spec)
	if err != nil {
		return nil, err
	}
	weights, err := os.ReadFile(filepath.Join(appDir, escName+weightsSuffix))
	if err != nil {
		return nil, err
	}
	if err := net.DecodeWeights(bytes.NewReader(weights)); err != nil {
		return nil, err
	}
	return net, nil
}
