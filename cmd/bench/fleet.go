package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"websnap/internal/fleet"
	"websnap/internal/obs"
	"websnap/internal/sim"
)

// The fleet experiment sweeps placement policies across fleet sizes: N
// heterogeneous edge servers (worker counts cycling 2/1/4) serving
// closed-loop full-offload clients that roam mid-session. Both policies
// run the production placement code (weighted rendezvous over registry
// views with live load hints); the cells differ only in what the policy
// decided. Alongside tail latency and the decision mix, the sweep reports
// the content-addressed sharing win: wireless model bytes the blob index
// saved versus a fleet where every (session, server) encounter re-uploads.

// fleetJSONFile is where the machine-readable results are written
// (a variable so tests can redirect it away from the working tree).
var fleetJSONFile = "BENCH_fleet.json"

// fleetClients is the closed-loop session count per cell; the
// -fleet-clients flag overrides it. CI runs the default and fails if the
// committed BENCH_fleet.json does not reproduce.
var fleetClients = 1000

// fleetServerCounts is the fleet-size axis of the sweep.
var fleetServerCounts = []int{2, 4, 8}

func fleetExp(w io.Writer) error {
	policies := []fleet.Policy{fleet.PolicyHash, fleet.PolicyLoadWeighted}
	pts, err := sim.FleetSweep("googlenet", fleetServerCounts, fleetClients,
		policies, sim.FleetConfig{RoamEvery: 3})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fleet sweep: placement policies over heterogeneous fleets, GoogLeNet full offload, %d roaming clients\n", fleetClients)
	fmt.Fprintln(w, "Policy\tServers\tTotal/s\tp50 (ms)\tp95 (ms)\tp99 (ms)\tFallback %\tHandoffs\tModel up (MB)\tSaved (MB)\tPeer fetch (MB)")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.0f\t%.0f\t%.0f\t%.1f\t%d\t%s\t%s\t%s\n",
			p.Policy, p.Servers, p.Throughput, p.P50Millis, p.P95Millis, p.P99Millis,
			100*p.FallbackRate(), p.Handoffs, mb(p.ClientModelUploadBytes),
			mb(p.ReuploadBytesSaved), mb(p.PeerFetchBytes))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Decision mix and placement spread per cell")
	fmt.Fprintln(w, "Policy\tServers\tFull\tFallback\tExec per server")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\n", p.Policy, p.Servers,
			pathCount(p.Mix, obs.PathFull), pathCount(p.Mix, obs.PathFallback), p.ExecPerServer)
	}
	data, err := json.MarshalIndent(struct {
		Experiment string           `json:"experiment"`
		Rows       []sim.FleetPoint `json:"rows"`
	}{"fleet", pts}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(fleetJSONFile, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: write %s: %w", fleetJSONFile, err)
	}
	fmt.Fprintf(w, "(raw numbers written to %s)\n", fleetJSONFile)
	return nil
}
