package fleet

import (
	"hash/fnv"
	"math"
	"sort"

	"websnap/internal/protocol"
)

// Policy names a placement strategy.
type Policy string

const (
	// PolicyHash is pure weighted-rendezvous consistent hashing over the
	// session ID with unit weights: placement depends only on membership,
	// so a stable fleet gives perfectly sticky sessions and a membership
	// change remaps only the sessions that were on the departed server.
	PolicyHash Policy = "hash"
	// PolicyLoadWeighted blends the same rendezvous hash with each
	// server's capacity and live load hint: weight = capacity softened by
	// the advertised queueing delay, and saturated servers rank after all
	// unsaturated ones. Sessions stay sticky while the fleet is balanced
	// and shift away from servers that fall behind — the multi-server
	// analogue of the client's single-server MaxQueueingDelay shedding.
	PolicyLoadWeighted Policy = "load"
)

// queueingSoftenMillis controls how strongly the advertised queueing delay
// discounts a server's weight under PolicyLoadWeighted: weight halves at
// this much queueing. Chosen near the paper's LTE RTT scale so a server
// needs network-significant queueing before placement moves sessions.
const queueingSoftenMillis = 50.0

// Rank orders the fleet view for one session, best candidate first.
// Ordering is deterministic for a given (policy, sessionID, view).
func Rank(policy Policy, sessionID string, servers []protocol.FleetServer) []protocol.FleetServer {
	type scored struct {
		s         protocol.FleetServer
		score     float64
		saturated bool
	}
	ranked := make([]scored, 0, len(servers))
	for _, s := range servers {
		w := 1.0
		saturated := false
		if policy == PolicyLoadWeighted {
			w = float64(s.Capacity)
			if w <= 0 {
				w = 1
			}
			if s.Load != nil {
				w /= 1 + s.Load.QueueingMillis/queueingSoftenMillis
				saturated = s.Load.Saturated
			}
		}
		ranked = append(ranked, scored{s: s, score: rendezvousScore(sessionID, s.Addr, w), saturated: saturated})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].saturated != ranked[j].saturated {
			return !ranked[i].saturated
		}
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].s.Addr < ranked[j].s.Addr
	})
	out := make([]protocol.FleetServer, len(ranked))
	for i, r := range ranked {
		out[i] = r.s
	}
	return out
}

// Pick returns the best server for the session, false on an empty view.
func Pick(policy Policy, sessionID string, servers []protocol.FleetServer) (protocol.FleetServer, bool) {
	if len(servers) == 0 {
		return protocol.FleetServer{}, false
	}
	return Rank(policy, sessionID, servers)[0], true
}

// PlacementView adapts a registry client to a dynamic candidate view (the
// shape internal/roam's Config.FleetView expects): each call fetches the
// fleet view — degrading to the client's last-known-good cache during a
// registry outage — ranks it for the session under the policy, and tags
// the source ("registry" live, "registry-cached" degraded) for the
// caller's audit trail. The error is non-nil only when the registry is
// unreachable and no cached view exists.
func PlacementView(rc *RegistryClient, policy Policy, sessionID string) func() ([]string, string, error) {
	return func() ([]string, string, error) {
		view, cached, err := rc.View()
		if err != nil {
			return nil, "", err
		}
		ranked := Rank(policy, sessionID, view.Servers)
		addrs := make([]string, len(ranked))
		for i, s := range ranked {
			addrs[i] = s.Addr
		}
		source := "registry"
		if cached {
			source = "registry-cached"
		}
		return addrs, source, nil
	}
}

// rendezvousScore is weighted rendezvous (highest-random-weight) hashing:
// hash (session, addr) to a uniform u in (0,1) and score it -w/ln(u).
// The server with the maximum score wins; because each (session, server)
// pair is hashed independently, removing a server only remaps the sessions
// it owned, and a server with twice the weight wins twice as often.
func rendezvousScore(sessionID, addr string, w float64) float64 {
	h := fnv.New64a()
	h.Write([]byte(sessionID))
	h.Write([]byte{0})
	h.Write([]byte(addr))
	// Map the top 53 bits to (0,1): the +0.5 offset keeps u strictly
	// inside the interval so ln(u) is finite and negative.
	u := (float64(h.Sum64()>>11) + 0.5) / (1 << 53)
	return -w / math.Log(u)
}
