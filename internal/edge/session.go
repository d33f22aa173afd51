package edge

import (
	"container/list"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"websnap/internal/nn"
	"websnap/internal/snapshot"
)

// SessionStore is the server's one content store: the pre-sent models — all
// a session leaves at the server — which on a fleet-joined server are also
// the blobs peers fetch. Models are content-addressed by nn.Fingerprint with
// per-app name indices on top, so byte-identical models shared by many
// sessions are stored once and a configurable byte cap holds regardless of
// how many sessions come and go. The LRU order that picks eviction victims
// is also the order KeysMRU advertises to the fleet, so what a heartbeat
// claims is exactly what Blob can produce.
//
// When MaxBytes is set, storing a new entry evicts the least-recently-used
// entries until the new one fits. Eviction only ever loses a cache: an
// evicted model makes the next offload for that session fail over to the
// client's local execution (or a fresh pre-send).
//
// It is safe for concurrent use.
type SessionStore struct {
	mu      sync.Mutex
	entries map[string]*sessionEntry
	lru     *list.List                   // front = most recently used
	models  map[string]map[string]string // appID -> model name -> content key

	bytes    int64
	maxBytes int64

	evictions int64

	// dir, when non-empty, persists model files to disk (see store.go).
	dir string
}

// sessionEntry is one content-addressed model. key, size and net never
// change after creation and may be read without the store's lock; refs and
// elem belong to the lock.
type sessionEntry struct {
	key  string
	size int64
	net  *nn.Network
	refs map[storeRef]struct{}
	elem *list.Element
}

// storeRef is one index reference to an entry: an (app, model-name) pair.
type storeRef struct{ appID, name string }

// newSessionStore builds a store bounded to maxBytes (0 = unbounded).
func newSessionStore(maxBytes int64) *SessionStore {
	return &SessionStore{
		entries:  make(map[string]*sessionEntry),
		lru:      list.New(),
		models:   make(map[string]map[string]string),
		maxBytes: maxBytes,
	}
}

// Put stores a model for an app. With a directory-backed store the model
// files are also written to disk; persistence failures are returned but the
// in-memory copy is kept, so the current session still works.
func (s *SessionStore) Put(appID, name string, net *nn.Network) error {
	return s.putKeyed(appID, name, nn.Fingerprint(net), net)
}

// putKeyed is Put for a caller that already knows net's fingerprint — a
// reference pre-send resolved from this store or verified against the key
// on its way in from a peer — and so skips hashing the weights again.
func (s *SessionStore) putKeyed(appID, name, fp string, net *nn.Network) error {
	s.putModel(appID, name, fp, net)
	if s.dir == "" {
		return nil
	}
	return s.persist(appID, name, net)
}

// putModel indexes a model under (appID, name). Byte-identical models
// fingerprint to the same content key fp and share one stored copy.
func (s *SessionStore) putModel(appID, name, fp string, net *nn.Network) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.models[appID] == nil {
		s.models[appID] = make(map[string]string)
	}
	ref := storeRef{appID: appID, name: name}
	if old, ok := s.models[appID][name]; ok {
		if old == fp {
			s.touchLocked(s.entries[old])
			return
		}
		s.derefLocked(old, ref)
	}
	s.models[appID][name] = fp
	s.refLocked(fp, ref, func() *sessionEntry {
		// The byte-cap charge is what the model holds once it has run: its
		// weights plus its convolutions' packed panels, known from the layer
		// shapes at install, so an entry's size never changes. The spec is
		// noise by comparison.
		return &sessionEntry{key: fp, size: net.ResidentBytes(), net: net}
	})
	s.enforceCapLocked(fp)
}

// refLocked adds ref to key's entry, creating it via mk on first
// reference, and marks the entry recently used.
func (s *SessionStore) refLocked(key string, ref storeRef, mk func() *sessionEntry) {
	e, ok := s.entries[key]
	if !ok {
		e = mk()
		e.refs = make(map[storeRef]struct{}, 1)
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += e.size
	} else {
		s.touchLocked(e)
	}
	e.refs[ref] = struct{}{}
}

// derefLocked removes ref from key's entry and releases the entry when no
// reference remains. A release is bookkeeping (a model replaced under its
// name), not an eviction, but it ends the key's life here all the same: the
// key is neither advertised nor served afterwards.
func (s *SessionStore) derefLocked(key string, ref storeRef) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(e.refs, ref)
	if len(e.refs) > 0 {
		return
	}
	s.removeLocked(e)
}

// removeLocked drops an entry from the store (shared by release and
// eviction; callers handle index cleanup and accounting beyond bytes).
func (s *SessionStore) removeLocked(e *sessionEntry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.key)
	s.bytes -= e.size
}

// touchLocked marks an entry most recently used.
func (s *SessionStore) touchLocked(e *sessionEntry) {
	if e != nil {
		s.lru.MoveToFront(e.elem)
	}
}

// enforceCapLocked evicts least-recently-used entries until the store fits
// its byte cap. The just-stored entry (protect) is never evicted — the
// session that stored it needs it this instant, so a single entry larger
// than the whole cap leaves the store briefly over budget rather than
// broken.
func (s *SessionStore) enforceCapLocked(protect string) {
	if s.maxBytes <= 0 {
		return
	}
	el := s.lru.Back()
	for s.bytes > s.maxBytes && el != nil {
		e := el.Value.(*sessionEntry)
		el = el.Prev()
		if e.key == protect {
			continue
		}
		s.evictLocked(e)
	}
}

// evictLocked drops an entry at the cap: every index reference to it is
// unlinked (including any on-disk model files). The key leaves the LRU list
// with it, so the next heartbeat no longer advertises it.
func (s *SessionStore) evictLocked(e *sessionEntry) {
	for ref := range e.refs {
		if m := s.models[ref.appID]; m != nil {
			delete(m, ref.name)
			if len(m) == 0 {
				delete(s.models, ref.appID)
			}
		}
		if s.dir != "" {
			base := filepath.Join(s.dir, escape(ref.appID), escape(ref.name))
			os.Remove(base + specSuffix)
			os.Remove(base + weightsSuffix)
		}
	}
	s.removeLocked(e)
	s.evictions++
}

// lookup finds an entry by content key, marking it recently used; nil when
// the store does not hold key. Callers read only the immutable payload
// fields.
func (s *SessionStore) lookup(key string) *sessionEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	s.touchLocked(e)
	return e
}

// Blob returns the bytes a fleet peer fetches under key, a use for the LRU
// order: the model's weight blob, encoded on demand — EncodeWeights is
// deterministic, so together with the spec the fetcher holds the bytes
// rebuild a model that fingerprints to key. False when key is not held.
func (s *SessionStore) Blob(key string) ([]byte, bool) {
	e := s.lookup(key)
	if e == nil {
		return nil, false
	}
	return e.net.WeightBlob(), true
}

// KeysMRU returns every held content key, most recently used first — the
// set a registry heartbeat advertises, ordered so that a capped
// advertisement keeps the keys peers most likely want and the cap is least
// likely to evict before a fetch arrives.
func (s *SessionStore) KeysMRU() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*sessionEntry).key)
	}
	return keys
}

// Get retrieves a model for an app, marking it recently used.
func (s *SessionStore) Get(appID, name string) (*nn.Network, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.models[appID][name]
	if !ok {
		return nil, false
	}
	e := s.entries[key]
	s.touchLocked(e)
	return e.net, true
}

// Names returns the model names stored for an app, in sorted order.
func (s *SessionStore) Names(appID string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.models[appID]))
	for name := range s.models[appID] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Resolver returns a snapshot.ModelResolver scoped to one app.
func (s *SessionStore) Resolver(appID string) snapshot.ModelResolver {
	return snapshot.ResolverFunc(func(name string) (*nn.Network, bool) {
		return s.Get(appID, name)
	})
}

// Bytes returns the store's current byte-cap charge: the held models'
// weight bytes.
func (s *SessionStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// MaxBytes returns the configured byte cap (0 = unbounded).
func (s *SessionStore) MaxBytes() int64 { return s.maxBytes }

// Entries returns the number of distinct content-addressed payloads held.
func (s *SessionStore) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Evictions returns how many entries the byte cap has evicted.
func (s *SessionStore) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
