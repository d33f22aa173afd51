package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// SLO defaults.
const (
	DefaultSLOShortWindow = 5 * time.Minute
	DefaultSLOLongWindow  = time.Hour
)

// SLOBurnThreshold is the burn-rate multiple that trips the alert: error
// budget consumed twice as fast as the objective allows, in both windows.
const SLOBurnThreshold = 2.0

// SLOConfig parametrizes a latency SLO.
type SLOConfig struct {
	// Name labels the objective ("edge-serve", "fleet-serve").
	Name string
	// Objective is the latency threshold: a request slower than this is a
	// bad event.
	Objective time.Duration
	// Goal is the target good-event ratio (0.99 = 1% error budget). Zero
	// selects 0.99.
	Goal float64
	// ShortWindow and LongWindow are the two burn-rate windows; an alert
	// needs both to burn, so a brief spike (short only) and a slow bleed
	// that has already stopped (long only) both stay quiet. Zero selects
	// DefaultSLOShortWindow / DefaultSLOLongWindow.
	ShortWindow, LongWindow time.Duration
	// Now is the clock; nil selects time.Now. Injectable for tests and
	// the simulator.
	Now func() time.Time
	// OnBurn, when set, fires once per transition into the burning state
	// (from the goroutine that observed the tripping event).
	OnBurn func(SLOStatus)
}

// sloSlot is one second of good/bad event counts.
type sloSlot struct {
	sec   int64
	total uint64
	bad   uint64
}

// SLO tracks a latency objective with multi-window burn-rate accounting
// over a ring of one-second slots. Observations can be individual
// latencies (Observe) or pre-aggregated counts from heartbeat digest
// deltas (ObserveCounts), so the same engine serves edged (per-request)
// and fleetd (per-heartbeat).
type SLO struct {
	cfg   SLOConfig
	mu    sync.Mutex
	slots []sloSlot
	// burning latches the alert state so OnBurn fires on the rising edge
	// only.
	burning bool
}

// NewSLO creates an SLO engine. Objective must be positive.
func NewSLO(cfg SLOConfig) (*SLO, error) {
	if cfg.Objective <= 0 {
		return nil, fmt.Errorf("telemetry: SLO objective must be positive, got %v", cfg.Objective)
	}
	if cfg.Goal <= 0 || cfg.Goal >= 1 {
		if cfg.Goal != 0 {
			return nil, fmt.Errorf("telemetry: SLO goal must be in (0,1), got %v", cfg.Goal)
		}
		cfg.Goal = 0.99
	}
	if cfg.ShortWindow <= 0 {
		cfg.ShortWindow = DefaultSLOShortWindow
	}
	if cfg.LongWindow <= 0 {
		cfg.LongWindow = DefaultSLOLongWindow
	}
	if cfg.LongWindow < cfg.ShortWindow {
		return nil, fmt.Errorf("telemetry: SLO long window %v shorter than short window %v",
			cfg.LongWindow, cfg.ShortWindow)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	slots := int(cfg.LongWindow/time.Second) + 1
	return &SLO{cfg: cfg, slots: make([]sloSlot, slots)}, nil
}

// Objective returns the configured latency threshold.
func (s *SLO) Objective() time.Duration { return s.cfg.Objective }

// Observe records one request latency against the objective.
func (s *SLO) Observe(d time.Duration) {
	bad := uint64(0)
	if d > s.cfg.Objective {
		bad = 1
	}
	s.ObserveCounts(1, bad)
}

// ObserveCounts records a pre-aggregated batch of events (bad <= total),
// e.g. the delta between two successive cumulative heartbeat digests.
func (s *SLO) ObserveCounts(total, bad uint64) {
	if total == 0 {
		return
	}
	if bad > total {
		bad = total
	}
	sec := s.cfg.Now().Unix()
	s.mu.Lock()
	slot := &s.slots[int(sec%int64(len(s.slots)))]
	if slot.sec != sec {
		*slot = sloSlot{sec: sec}
	}
	slot.total += total
	slot.bad += bad
	st := s.statusLocked()
	fire := st.Burning && !s.burning
	s.burning = st.Burning
	s.mu.Unlock()
	if fire && s.cfg.OnBurn != nil {
		s.cfg.OnBurn(st)
	}
}

// SLOStatus is the engine's current state, served on /slo.
type SLOStatus struct {
	Name            string  `json:"name,omitempty"`
	ObjectiveMillis float64 `json:"objectiveMillis"`
	Goal            float64 `json:"goal"`
	BurnThreshold   float64 `json:"burnThreshold"`
	// ShortBurn/LongBurn are the burn rates over the two windows: the
	// observed bad-event ratio divided by the error budget (1-Goal). 1.0
	// means consuming budget exactly as fast as the objective allows.
	ShortBurn float64 `json:"shortBurn"`
	LongBurn  float64 `json:"longBurn"`
	// ShortTotal/ShortBad and LongTotal/LongBad are the raw window counts.
	ShortTotal uint64 `json:"shortTotal"`
	ShortBad   uint64 `json:"shortBad"`
	LongTotal  uint64 `json:"longTotal"`
	LongBad    uint64 `json:"longBad"`
	// Burning reports whether both windows exceed the burn threshold.
	Burning bool `json:"burning"`
}

// Status returns the current multi-window burn state.
func (s *SLO) Status() SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *SLO) statusLocked() SLOStatus {
	now := s.cfg.Now().Unix()
	st := SLOStatus{
		Name:            s.cfg.Name,
		ObjectiveMillis: float64(s.cfg.Objective) / 1e6,
		Goal:            s.cfg.Goal,
		BurnThreshold:   SLOBurnThreshold,
	}
	shortCut := now - int64(s.cfg.ShortWindow/time.Second)
	longCut := now - int64(s.cfg.LongWindow/time.Second)
	for i := range s.slots {
		slot := &s.slots[i]
		if slot.sec == 0 || slot.sec <= longCut || slot.sec > now {
			continue
		}
		st.LongTotal += slot.total
		st.LongBad += slot.bad
		if slot.sec > shortCut {
			st.ShortTotal += slot.total
			st.ShortBad += slot.bad
		}
	}
	budget := 1 - s.cfg.Goal
	st.ShortBurn = burnRate(st.ShortBad, st.ShortTotal, budget)
	st.LongBurn = burnRate(st.LongBad, st.LongTotal, budget)
	st.Burning = st.ShortBurn >= SLOBurnThreshold && st.LongBurn >= SLOBurnThreshold
	return st
}

func burnRate(bad, total uint64, budget float64) float64 {
	if total == 0 || budget <= 0 {
		return 0
	}
	return float64(bad) / float64(total) / budget
}

// Handler serves the SLO status as JSON on /slo.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Status())
	})
}
