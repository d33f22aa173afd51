// Package protocol frames the messages exchanged between the client device
// and the edge server's offloading program: model pre-sending with
// acknowledgement (§III.B.1), snapshot shipping, and result return (§III.A).
//
// Wire format (all integers little-endian):
//
//	magic   uint32  "WSNP"
//	version uint8
//	type    uint8
//	hdrLen  uint32  JSON header length
//	bodyLen uint64  payload length
//	header  []byte  JSON, message-type specific
//	body    []byte  raw payload (weights blob, snapshot text, ...)
//
// There is one request/response contract with an edge server, with nothing
// to negotiate: every request header carries a client-chosen Seq naming its
// logical stream, the server dispatches the frames of one connection
// concurrently and echoes the Seq on the matching response, and responses
// may arrive in any order. Responses always carry the server's Load and,
// where there is a body, its BodyCRC; results carry a ServerTrace, and a
// span tree whenever the request carried a TraceID. Acks, pongs and results
// also carry the server's capability Hints: a snapshot body may travel packed
// (compress.go) to a server that has said it decodes that.
package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

const (
	magic   = uint32(0x57534e50) // "WSNP"
	version = uint8(1)

	// MaxHeaderLen bounds the JSON header; headers are small metadata.
	MaxHeaderLen = 1 << 20
	// MaxBodyLen bounds the payload (models and snapshots can reach tens
	// of MB; 1 GiB is a generous safety cap).
	MaxBodyLen = 1 << 30
)

// MsgType identifies a message.
type MsgType uint8

// Message types.
const (
	// MsgModelPreSend carries one model's descriptor (header) and weight
	// blob (body) from client to server, ahead of any offloading.
	MsgModelPreSend MsgType = iota + 1
	// MsgAck acknowledges a model pre-send.
	MsgAck
	// MsgSnapshot carries an encoded snapshot from client to server.
	MsgSnapshot
	// MsgResultSnapshot carries the full result snapshot back to the
	// client: the answer to a MsgSnapshot that asks for no delta reply.
	MsgResultSnapshot
	// MsgError reports a server-side failure.
	MsgError
	// MsgInstallOverlay carries a VM overlay for on-demand installation
	// of the offloading system (§III.B.3).
	MsgInstallOverlay
	// MsgInstallDone acknowledges VM synthesis completion.
	MsgInstallDone
	// Type 8 was the request-direction snapshot delta. It is retired and
	// its number stays reserved: an old peer's frame is answered MsgError.
	_
	// MsgResultDelta carries the result as a delta relative to the state
	// the client shipped: the answer to a MsgSnapshot whose header asks for
	// one (SnapshotHeader.Reply).
	MsgResultDelta
	// MsgPing asks the server for its current status without submitting
	// work; used by load probes and roaming server selection.
	MsgPing
	// MsgPong answers a ping with the server's install state and load.
	MsgPong
	// MsgFleetRegister announces an edge server to a fleet registry:
	// address, capacity, current load, and the content-addressed blob keys
	// it holds. Re-sent periodically as a liveness heartbeat.
	MsgFleetRegister
	// MsgFleetRegistered acknowledges a registration.
	MsgFleetRegistered
	// MsgFleetList asks the registry for the current fleet view.
	MsgFleetList
	// MsgFleetView answers with the live (non-expired) fleet members.
	MsgFleetView
	// MsgBlobLocate asks the registry which servers hold the given
	// content-addressed blobs (model weights, keyed by nn.Fingerprint).
	MsgBlobLocate
	// MsgBlobLocation answers with the holders per blob key.
	MsgBlobLocation
	// MsgBlobGet asks a peer edge server for one blob by content key.
	MsgBlobGet
	// MsgBlobData answers a blob fetch with the blob bytes in the body.
	MsgBlobData
	// MsgChainExec asks an edge server to execute its layer range of a
	// multi-hop partial-inference chain. The header carries the full hop
	// manifest and this hop's position; the body is the boundary feature
	// tensor as raw little-endian float32s. A mid-chain hop executes its
	// range, relays the next MsgChainExec to the next hop, and returns the
	// downstream result upstream.
	MsgChainExec
	// MsgChainResult answers a chain exec with the final output tensor
	// (raw little-endian float32 body), relayed back hop by hop.
	MsgChainResult
)

func (t MsgType) String() string {
	switch t {
	case MsgModelPreSend:
		return "model-presend"
	case MsgAck:
		return "ack"
	case MsgSnapshot:
		return "snapshot"
	case MsgResultSnapshot:
		return "result-snapshot"
	case MsgError:
		return "error"
	case MsgInstallOverlay:
		return "install-overlay"
	case MsgInstallDone:
		return "install-done"
	case MsgResultDelta:
		return "result-delta"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgFleetRegister:
		return "fleet-register"
	case MsgFleetRegistered:
		return "fleet-registered"
	case MsgFleetList:
		return "fleet-list"
	case MsgFleetView:
		return "fleet-view"
	case MsgBlobLocate:
		return "blob-locate"
	case MsgBlobLocation:
		return "blob-location"
	case MsgBlobGet:
		return "blob-get"
	case MsgBlobData:
		return "blob-data"
	case MsgChainExec:
		return "chain-exec"
	case MsgChainResult:
		return "chain-result"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Errors returned by the codec.
var (
	ErrBadMagic    = errors.New("protocol: bad magic")
	ErrBadVersion  = errors.New("protocol: unsupported version")
	ErrTooLarge    = errors.New("protocol: message exceeds size limit")
	ErrUnknownType = errors.New("protocol: unknown message type")
	// ErrChecksum marks a body whose content does not match the checksum
	// its header carries: the frame arrived complete but corrupted, so the
	// payload must not be trusted (and must never be executed or applied).
	ErrChecksum = errors.New("protocol: body checksum mismatch")
)

// crcTable is the Castagnoli polynomial table used for body checksums
// (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BodyChecksum returns the integrity checksum senders attach to snapshot
// and model bodies (over the wire bytes, i.e. after any packing).
func BodyChecksum(body []byte) uint32 {
	return crc32.Checksum(body, crcTable)
}

// VerifyBody checks body against the checksum a header carried. A zero
// sum means the sender attached none (a body-less frame) and no check
// applies.
func VerifyBody(body []byte, sum uint32) error {
	if sum == 0 {
		return nil
	}
	if got := BodyChecksum(body); got != sum {
		return fmt.Errorf("%w: got %#08x, header says %#08x", ErrChecksum, got, sum)
	}
	return nil
}

// HintCRCV1 is the one surviving level of the retired per-message hint
// ladder.
//
// Deprecated: nothing reads it; kept only because benchmark/layers.go:200
// still names it, until a benchmark PR drops the reference.
const HintCRCV1 = 3

// LoadHint is the edge server's advertised scheduling load, attached to
// every response. Clients fold the estimated queueing delay into their
// local/full/partial offload decision and shed load to local execution when
// the server saturates.
type LoadHint struct {
	// QueueDepth is the number of snapshot sessions waiting for a worker.
	QueueDepth int `json:"queueDepth"`
	// QueueCap is the admission queue's capacity (0 = unbounded).
	QueueCap int `json:"queueCap,omitempty"`
	// Workers and Busy report the worker pool size and how many workers
	// are currently executing.
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	// EWMAServiceMillis is the smoothed per-session service time.
	EWMAServiceMillis float64 `json:"ewmaServiceMillis"`
	// QueueingMillis is the server's estimate of the delay a request
	// submitted now would spend waiting for a worker.
	QueueingMillis float64 `json:"queueingMillis"`
	// Saturated marks a server whose admission queue is full; clients
	// should prefer local execution or another server.
	Saturated bool `json:"saturated,omitempty"`
}

// QueueingDelay returns the advertised queueing estimate as a duration.
func (h LoadHint) QueueingDelay() time.Duration {
	return time.Duration(h.QueueingMillis * float64(time.Millisecond))
}

// ServerTrace carries the server-side span durations of one offload back to
// the client on every result frame, keyed by the request's TraceID.
// Durations are microseconds to keep the header compact.
type ServerTrace struct {
	// TraceID echoes the request's trace identifier.
	TraceID string `json:"traceId"`
	// DecodeMicros covers request body inflation and unpacking + snapshot
	// decoding.
	DecodeMicros int64 `json:"decodeMicros"`
	// QueueMicros is the time the session waited in the admission queue
	// for a scheduler worker.
	QueueMicros int64 `json:"queueMicros"`
	// ExecuteMicros covers restore + handler execution + result capture
	// inside the worker.
	ExecuteMicros int64 `json:"executeMicros"`
	// EncodeMicros covers result encoding (diff + delta, or the full
	// snapshot) + any packing.
	EncodeMicros int64 `json:"encodeMicros"`
	// BatchSize is how many coalesced sessions shared the worker's batched
	// forward pass (1 = solo execution).
	BatchSize int `json:"batchSize,omitempty"`
	// StreamWaitMicros is the time the request spent waiting for a stream
	// slot before dispatch (per-connection stream semaphore).
	StreamWaitMicros int64 `json:"streamWaitMicros,omitempty"`
}

// Total returns the server-side time accounted to this offload. The
// stream-semaphore wait is server-side time too: counting it keeps the
// client's derived wire time honest when a saturated stream window, not the
// network, delayed the response.
func (t ServerTrace) Total() time.Duration {
	return time.Duration(t.DecodeMicros+t.QueueMicros+t.ExecuteMicros+t.EncodeMicros+t.StreamWaitMicros) * time.Microsecond
}

// SpanNode is one node of a cross-process span tree, the unit of trace
// propagation. A server that does remote
// work on behalf of a traced request (locating a blob at the registry,
// fetching it from a peer) answers with a SpanNode describing that work;
// each hop nests the spans it received from its own downstream calls as
// children, so the requester ends up holding one tree, under one trace ID,
// covering every process the request touched. Durations are microseconds
// to keep headers compact.
type SpanNode struct {
	// Op names the operation ("presend_resolve", "registry_locate",
	// "peer_fetch", "blob_serve", ...).
	Op string `json:"op"`
	// Addr identifies the process that performed the operation (an
	// advertised server address, "registry", or "client").
	Addr string `json:"addr,omitempty"`
	// Micros is the operation's wall-clock duration.
	Micros int64 `json:"us"`
	// Detail optionally carries the operation's object (a blob key, a
	// holder address).
	Detail string `json:"detail,omitempty"`
	// Children are the nested downstream operations.
	Children []*SpanNode `json:"ch,omitempty"`
}

// Walk visits n and every descendant in depth-first order.
func (n *SpanNode) Walk(visit func(*SpanNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// HistDigest is a compact wire form of one latency histogram: sparse
// occupied buckets plus exact count and sum, so a receiver can reconstruct
// and merge the histogram losslessly (bucket indexes refer to the shared
// trace.Histogram bucket layout).
type HistDigest struct {
	// Buckets lists occupied buckets as [bucketIndex, count] pairs in
	// index order.
	Buckets [][2]int64 `json:"b,omitempty"`
	// Count is the total number of observations.
	Count uint64 `json:"n"`
	// SumNanos is the exact sum of observed durations in nanoseconds.
	SumNanos int64 `json:"s"`
}

// StatsDigest is the compact per-server telemetry rollup an edge server
// piggybacks on fleet heartbeats. Histograms and
// counters are cumulative since process start; the registry keeps the
// latest digest per member and fleetd merges them into fleet-wide
// exposition, per-server summaries, and SLO burn accounting.
type StatsDigest struct {
	// Stages maps trace stage names to their latency digests.
	Stages map[string]HistDigest `json:"stages,omitempty"`
	// Decisions counts executed request outcomes by path (full, partial,
	// shed, error) — the server-side mirror of the client decision mix.
	Decisions map[string]uint64 `json:"decisions,omitempty"`
	// QueueDepth is the scheduler admission-queue depth at digest time.
	QueueDepth int `json:"queueDepth,omitempty"`
	// StoreBytes is the session store's resident byte size at digest time.
	StoreBytes int64 `json:"storeBytes,omitempty"`
	// UptimeMillis is how long the process has been serving.
	UptimeMillis int64 `json:"uptimeMillis,omitempty"`
}

// ModelPreSendHeader is the JSON header of MsgModelPreSend. The weight blob
// travels in the body; together they are "the NN model files (including the
// description/parameters of the NN)".
type ModelPreSendHeader struct {
	AppID     string          `json:"appId"`
	ModelName string          `json:"modelName"`
	Spec      json.RawMessage `json:"spec"`
	// Seq identifies the request's stream; the ack echoes it.
	Seq uint64 `json:"seq,omitempty"`
	// BodyCRC is the weight blob's integrity checksum (BodyChecksum);
	// zero means unchecked (empty body).
	BodyCRC uint32 `json:"bodyCrc,omitempty"`
	// BlobKey is the model's content-addressed fleet identity
	// (nn.Fingerprint over spec+weights), so the server can index the
	// blob fleet-wide.
	BlobKey string `json:"blobKey,omitempty"`
	// RefOnly marks a reference-only pre-send: the body is empty and the
	// server must resolve BlobKey from its own cache or a fleet peer. A
	// server that cannot answers NeedBlob on the ack.
	RefOnly bool `json:"refOnly,omitempty"`
	// TraceID propagates the offload trace across the pre-send hop: the
	// server tags its blob-resolution work — registry locate, peer
	// fetches — with the same ID and answers with the resulting span tree
	// on the ack.
	TraceID string `json:"traceId,omitempty"`
}

// AckHeader is the JSON header of MsgAck.
type AckHeader struct {
	AppID     string `json:"appId"`
	ModelName string `json:"modelName"`
	// Seq echoes the request's stream id.
	Seq uint64 `json:"seq,omitempty"`
	// Load is the server's scheduling load.
	Load *LoadHint `json:"load,omitempty"`
	// NeedBlob rejects a reference-only pre-send: the server could not
	// resolve the BlobKey locally or from a peer, and the client must
	// retry with the full weight bytes.
	NeedBlob bool `json:"needBlob,omitempty"`
	// Span is the server-side span tree of this pre-send's blob
	// resolution (registry locate, peer fetches), attached when the
	// request carried a TraceID.
	Span *SpanNode `json:"span,omitempty"`
	// Hints carries the server's capability bits (HintPackedBody).
	Hints int `json:"hints,omitempty"`
	// ServeMicros is how long the server spent on the pre-send once its
	// frame had arrived; the round trip less this is the upload, which is
	// the client's first reading of its uplink.
	ServeMicros int64 `json:"serveMicros,omitempty"`
}

// SnapshotHeader is the JSON header of MsgSnapshot, MsgResultSnapshot and
// MsgResultDelta.
type SnapshotHeader struct {
	AppID string `json:"appId"`
	// Seq identifies the request's stream; the response echoes it.
	Seq uint64 `json:"seq"`
	// Encoding is the body encoding (EncodingRaw or EncodingPacked).
	Encoding string `json:"encoding,omitempty"`
	// PlainLen is the length of the text an EncodingPacked body stands for;
	// zero on a raw body.
	PlainLen int64 `json:"plainLen,omitempty"`
	// Hints carries the server's capability bits (HintPackedBody) on a
	// response; on a request every receiver ignores it.
	Hints int `json:"hints,omitempty"`
	// TraceID identifies this offload's trace (request direction only).
	TraceID string `json:"traceId,omitempty"`
	// Reply is the result form the request asks for (request direction
	// only): empty for the full result snapshot, else a result delta —
	// ReplyDelta, which any other non-empty value is read as.
	Reply string `json:"reply,omitempty"`
	// BodyCRC is the body's integrity checksum over the wire bytes (after
	// any packing). Receivers verify whenever it is non-zero; servers
	// attach it to every response.
	BodyCRC uint32 `json:"bodyCrc,omitempty"`
	// Load is the server's scheduling load (response direction only).
	Load *LoadHint `json:"load,omitempty"`
	// ServerTrace carries the server-side spans of this offload (response
	// direction only).
	ServerTrace *ServerTrace `json:"serverTrace,omitempty"`
}

// ReplyDelta asks for the result as a delta against the state the request
// carried. A request that asks for no reply form gets the full result
// snapshot. Either way nothing of the request outlives it at the server.
const ReplyDelta = "delta"

// RequestBase names the state a MsgSnapshot request carried, for the result
// delta that answers it: stream, body checksum and wire length — what both
// ends hold of the request without another pass over its body.
func (h SnapshotHeader) RequestBase(body []byte) string {
	return fmt.Sprintf("req:%d:%08x:%d", h.Seq, h.BodyCRC, len(body))
}

// ErrorHeader is the JSON header of MsgError.
type ErrorHeader struct {
	Message string `json:"message"`
	Seq     uint64 `json:"seq,omitempty"`
	// Overloaded marks an error caused by admission-queue rejection
	// rather than a failure: the request was well-formed but the server
	// is saturated, so the client should execute locally instead.
	Overloaded bool `json:"overloaded,omitempty"`
	// Load carries the server's scheduling load alongside an overload
	// rejection.
	Load *LoadHint `json:"load,omitempty"`
	// ChainHop locates a chain failure: the 1-based index into the chain
	// manifest of the hop that failed (a relay that cannot reach its
	// downstream reports the downstream's index). Zero means "not a chain
	// error". The client's re-planner uses it to exclude the dead hop.
	ChainHop int `json:"chainHop,omitempty"`
}

// PingHeader is the JSON header of MsgPing.
type PingHeader struct {
	// Seq identifies the ping's stream; the pong echoes it.
	Seq uint64 `json:"seq,omitempty"`
}

// PongHeader is the JSON header of MsgPong.
type PongHeader struct {
	Installed bool      `json:"installed"`
	Load      *LoadHint `json:"load,omitempty"`
	// Fleet advertises that the server participates in a fleet (blob
	// sharing + registry).
	Fleet bool `json:"fleet,omitempty"`
	// Seq echoes the ping's stream id.
	Seq uint64 `json:"seq,omitempty"`
	// Hints carries the server's capability bits (HintPackedBody).
	Hints int `json:"hints,omitempty"`
}

// InstallOverlayHeader is the JSON header of MsgInstallOverlay; the
// compressed overlay bytes travel in the body.
type InstallOverlayHeader struct {
	BaseImage string `json:"baseImage"`
	// Seq identifies the request's stream; the done-ack echoes it.
	Seq uint64 `json:"seq,omitempty"`
}

// InstallDoneHeader is the JSON header of MsgInstallDone.
type InstallDoneHeader struct {
	BaseImage string `json:"baseImage"`
	// SynthesisMillis reports how long VM synthesis took on the server.
	SynthesisMillis int64 `json:"synthesisMillis"`
	// Seq echoes the request's stream id.
	Seq uint64 `json:"seq,omitempty"`
}

// MuxEnvelope is the stream id every edge-server request and response
// header carries, under the JSON key all of them share: what DecodeFrame
// parses a frame type without a header struct of its own into.
type MuxEnvelope struct {
	Seq uint64 `json:"seq"`
}

// Envelope is what a connection's demultiplexer reads off a frame: the
// stream it belongs to and, on a response, the server's load and capability
// hints.
type Envelope struct {
	Seq   uint64
	Load  *LoadHint
	Hints int
}

// enveloped is a frame header that knows its envelope.
type enveloped interface{ envelope() Envelope }

func (h *MuxEnvelope) envelope() Envelope          { return Envelope{Seq: h.Seq} }
func (h *ModelPreSendHeader) envelope() Envelope   { return Envelope{Seq: h.Seq} }
func (h *AckHeader) envelope() Envelope            { return Envelope{h.Seq, h.Load, h.Hints} }
func (h *SnapshotHeader) envelope() Envelope       { return Envelope{h.Seq, h.Load, h.Hints} }
func (h *ErrorHeader) envelope() Envelope          { return Envelope{Seq: h.Seq, Load: h.Load} }
func (h *InstallOverlayHeader) envelope() Envelope { return Envelope{Seq: h.Seq} }
func (h *InstallDoneHeader) envelope() Envelope    { return Envelope{Seq: h.Seq} }
func (h *PingHeader) envelope() Envelope           { return Envelope{Seq: h.Seq} }
func (h *PongHeader) envelope() Envelope           { return Envelope{h.Seq, h.Load, h.Hints} }
func (h *BlobGetHeader) envelope() Envelope        { return Envelope{Seq: h.Seq} }
func (h *BlobDataHeader) envelope() Envelope       { return Envelope{Seq: h.Seq} }
func (h *ChainExecHeader) envelope() Envelope      { return Envelope{Seq: h.Seq} }
func (h *ChainResultHeader) envelope() Envelope    { return Envelope{Seq: h.Seq, Load: h.Load} }

// frameHeaders makes the header struct of each edge-server message type.
var frameHeaders = map[MsgType]func() enveloped{
	MsgModelPreSend:   func() enveloped { return new(ModelPreSendHeader) },
	MsgAck:            func() enveloped { return new(AckHeader) },
	MsgSnapshot:       func() enveloped { return new(SnapshotHeader) },
	MsgResultSnapshot: func() enveloped { return new(SnapshotHeader) },
	MsgResultDelta:    func() enveloped { return new(SnapshotHeader) },
	MsgError:          func() enveloped { return new(ErrorHeader) },
	MsgInstallOverlay: func() enveloped { return new(InstallOverlayHeader) },
	MsgInstallDone:    func() enveloped { return new(InstallDoneHeader) },
	MsgPing:           func() enveloped { return new(PingHeader) },
	MsgPong:           func() enveloped { return new(PongHeader) },
	MsgBlobGet:        func() enveloped { return new(BlobGetHeader) },
	MsgBlobData:       func() enveloped { return new(BlobDataHeader) },
	MsgChainExec:      func() enveloped { return new(ChainExecHeader) },
	MsgChainResult:    func() enveloped { return new(ChainResultHeader) },
}

// DecodeFrame parses msg's header, once, into the struct its type carries —
// a *SnapshotHeader for MsgSnapshot, MsgResultSnapshot and MsgResultDelta, a
// *PongHeader for MsgPong, and so on; a *MuxEnvelope for any other type —
// and returns it with the frame's envelope. The demultiplexer routes by the
// envelope and hands the handler or caller the header it already holds.
// Like json.Unmarshal, a header that parses but has a field of the wrong
// type fills in the rest, envelope included, and reports the error.
func DecodeFrame(msg Message) (hdr any, env Envelope, err error) {
	h := enveloped(new(MuxEnvelope))
	if newHdr, ok := frameHeaders[msg.Type]; ok {
		h = newHdr()
	}
	err = DecodeHeader(msg, h)
	return h, h.envelope(), err
}

// FleetServer is one fleet member as seen in a registry view.
type FleetServer struct {
	// Addr is the server's advertised (dialable) offload address.
	Addr string `json:"addr"`
	// Capacity is the server's worker-pool size, the static weight the
	// placement layer blends with the live load hint.
	Capacity int `json:"capacity"`
	// Load is the member's last registered scheduling load, if any.
	Load *LoadHint `json:"load,omitempty"`
	// AgeMillis is how old this member's last heartbeat was when the view
	// was served (registry clock; lets clients judge hint freshness
	// without trusting their own clock against the registry's).
	AgeMillis int64 `json:"ageMillis"`
}

// FleetRegisterHeader is the JSON header of MsgFleetRegister, an edge
// server's registration/heartbeat with the registry.
type FleetRegisterHeader struct {
	// Addr is the server's advertised offload address (see cmd/edged
	// -advertise; may differ from the listen address behind NAT).
	Addr string `json:"addr"`
	// Capacity is the server's worker-pool size.
	Capacity int `json:"capacity"`
	// TTLMillis is how long the registration stays live without a fresh
	// heartbeat; 0 means the registry default.
	TTLMillis int64 `json:"ttlMillis,omitempty"`
	// Load is the server's current scheduling load.
	Load *LoadHint `json:"load,omitempty"`
	// Blobs lists content-addressed blob keys the server holds (models by
	// nn.Fingerprint), merged into the fleet blob index.
	Blobs []string `json:"blobs,omitempty"`
	// Stats is the server's telemetry rollup digest, piggybacked on the
	// heartbeat when the agent has a digest supplier.
	Stats *StatsDigest `json:"stats,omitempty"`
}

// FleetRegisteredHeader is the JSON header of MsgFleetRegistered.
type FleetRegisteredHeader struct {
	// Servers is the number of live fleet members after this registration.
	Servers int `json:"servers"`
	// Version is the registry's monotonically increasing view version.
	Version uint64 `json:"version"`
}

// FleetListHeader is the JSON header of MsgFleetList, a client's request
// for the current fleet view.
type FleetListHeader struct{}

// FleetViewHeader is the JSON header of MsgFleetView.
type FleetViewHeader struct {
	// Version is the registry's view version; it increases whenever
	// membership or registered state changes.
	Version uint64 `json:"version"`
	// Servers lists the live fleet members.
	Servers []FleetServer `json:"servers"`
}

// BlobLocateHeader is the JSON header of MsgBlobLocate, asking the
// registry which fleet members hold the given content-addressed blobs.
type BlobLocateHeader struct {
	Keys []string `json:"keys"`
	// TraceID propagates the trace of the request that triggered this
	// locate through the registry hop.
	TraceID string `json:"traceId,omitempty"`
}

// BlobLocationHeader is the JSON header of MsgBlobLocation. Keys absent
// from Holders are unknown to the fleet.
type BlobLocationHeader struct {
	// Holders maps each located blob key to the advertised addresses of
	// live servers holding it.
	Holders map[string][]string `json:"holders,omitempty"`
	// Span is the registry's span for this locate, attached when the
	// request carried a TraceID.
	Span *SpanNode `json:"span,omitempty"`
}

// BlobGetHeader is the JSON header of MsgBlobGet, a peer-to-peer fetch of
// a content-addressed blob from another edge server.
type BlobGetHeader struct {
	Key string `json:"key"`
	// Seq identifies the request's stream; the blob data echoes it.
	Seq uint64 `json:"seq,omitempty"`
	// TraceID propagates the trace of the request that triggered this
	// peer fetch.
	TraceID string `json:"traceId,omitempty"`
}

// BlobDataHeader is the JSON header of MsgBlobData; the blob bytes travel
// in the body.
type BlobDataHeader struct {
	Key string `json:"key"`
	// Seq echoes the request's stream id.
	Seq uint64 `json:"seq,omitempty"`
	// BodyCRC is the blob's integrity checksum (BodyChecksum); receivers
	// verify whenever it is non-zero.
	BodyCRC uint32 `json:"bodyCrc,omitempty"`
	// Span is the serving peer's span for this fetch, attached when the
	// request carried a TraceID.
	Span *SpanNode `json:"span,omitempty"`
}

// ChainHop is one server entry in a chain's hop manifest: the address to
// relay to and the layer range [From, To) it executes. The client itself
// is not listed — it runs the front range locally and sends the first
// boundary tensor to Hops[0].
type ChainHop struct {
	// Addr is the hop's dialable offload address.
	Addr string `json:"addr"`
	// From and To delimit the layer range [From, To) this hop executes on
	// the pre-sent full model.
	From int `json:"from"`
	To   int `json:"to"`
}

// ChainExecHeader is the JSON header of MsgChainExec. The body is the
// boundary feature tensor as raw little-endian float32s (bit-exact: text
// encoding would round-trip through decimal and break the chain's
// bit-identity bar).
type ChainExecHeader struct {
	// AppID and ModelName identify the pre-sent model whose layers run.
	AppID     string `json:"appId"`
	ModelName string `json:"modelName"`
	// Seq identifies the request's stream; the result echoes it.
	Seq uint64 `json:"seq"`
	// Hop is the index into Hops of the server this frame addresses; the
	// receiver executes Hops[Hop] and relays to Hops[Hop+1], if any.
	Hop int `json:"hop"`
	// Hops is the chain manifest, identical on every frame of one chain
	// execution so any hop can report or re-plan against the full route.
	Hops []ChainHop `json:"hops"`
	// Shape is the boundary tensor's shape; the body holds exactly
	// prod(Shape) float32 values.
	Shape []int `json:"shape"`
	// TraceID identifies the chain's end-to-end trace; every hop tags its
	// spans with it.
	TraceID string `json:"traceId,omitempty"`
	// BodyCRC is the tensor body's integrity checksum; receivers verify
	// whenever it is non-zero.
	BodyCRC uint32 `json:"bodyCrc,omitempty"`
}

// ChainResultHeader is the JSON header of MsgChainResult; the body is the
// final output tensor as raw little-endian float32s, relayed unchanged
// through every hop on the way back.
type ChainResultHeader struct {
	// Seq echoes the request's stream id.
	Seq uint64 `json:"seq"`
	// Shape is the output tensor's shape.
	Shape []int `json:"shape"`
	// BodyCRC is the output body's checksum.
	BodyCRC uint32 `json:"bodyCrc,omitempty"`
	// Load is this hop's scheduling load, letting the client refresh
	// per-hop queue hints from a single chain round trip.
	Load *LoadHint `json:"load,omitempty"`
	// Span is this hop's span subtree for the chain execution, with the
	// downstream hop's subtree grafted as a child, attached when the
	// request carried a TraceID, so the client ends up holding one
	// parented tree: client root → hop1 → hop2 → …
	Span *SpanNode `json:"span,omitempty"`
}

// PutFloat32s writes vals into dst[:4*len(vals)] as little-endian IEEE-754
// float32s: the one byte order of every float the wire carries raw (chain
// frames here, typed arrays in a snapshot). Every bit of every value is
// preserved.
func PutFloat32s(dst []byte, vals []float32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// GetFloat32s fills dst from src[:4*len(dst)], the inverse of PutFloat32s.
func GetFloat32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// Float32Bytes renders vals as the raw little-endian float32 wire body of
// chain frames.
func Float32Bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	PutFloat32s(out, vals)
	return out
}

// BytesFloat32 decodes a raw little-endian float32 wire body.
func BytesFloat32(body []byte) ([]float32, error) {
	if len(body)%4 != 0 {
		return nil, fmt.Errorf("protocol: float32 body length %d not a multiple of 4", len(body))
	}
	out := make([]float32, len(body)/4)
	GetFloat32s(out, body)
	return out, nil
}

// Message is one framed message.
type Message struct {
	Type   MsgType
	Header []byte // JSON, type-specific
	Body   []byte
}

// prefixLen is the length of a frame's fixed prefix: magic through bodyLen.
const prefixLen = 18

// frameVec is one frame's write vector: the length prefix and the parts a
// net.Buffers write hands to the socket. Write pools them, so sending a
// frame allocates nothing.
type frameVec struct {
	prefix [prefixLen]byte
	parts  [3][]byte
	bufs   net.Buffers
}

var frameVecs = sync.Pool{New: func() any { return new(frameVec) }}

// Write frames and writes msg to w as one vectored write: a single writev
// on a TCP connection, one Write per non-empty part on any other writer.
func Write(w io.Writer, msg Message) error {
	if len(msg.Header) > MaxHeaderLen {
		return fmt.Errorf("%w: header %d bytes", ErrTooLarge, len(msg.Header))
	}
	if len(msg.Body) > MaxBodyLen {
		return fmt.Errorf("%w: body %d bytes", ErrTooLarge, len(msg.Body))
	}
	f := frameVecs.Get().(*frameVec)
	binary.LittleEndian.PutUint32(f.prefix[0:4], magic)
	f.prefix[4] = version
	f.prefix[5] = uint8(msg.Type)
	binary.LittleEndian.PutUint32(f.prefix[6:10], uint32(len(msg.Header)))
	binary.LittleEndian.PutUint64(f.prefix[10:18], uint64(len(msg.Body)))
	f.bufs = append(f.parts[:0], f.prefix[:])
	// Leave out empty parts: on rendezvous transports (net.Pipe) a 0-byte
	// Write blocks for a matching Read that io.ReadFull(0) on the peer
	// never issues.
	for _, part := range [][]byte{msg.Header, msg.Body} {
		if len(part) > 0 {
			f.bufs = append(f.bufs, part)
		}
	}
	_, err := f.bufs.WriteTo(w)
	f.parts, f.bufs = [3][]byte{}, nil // hold on to none of msg's bytes
	frameVecs.Put(f)
	if err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// readBufSize sizes a connection's read buffer: a frame of up to 32 KB —
// a small model's request and result, every ack, pong and error — comes out
// of one read of the socket.
const readBufSize = 64 << 10

// NewReader returns the buffered reader a connection reads its frames
// through, one per connection for its lifetime: Read then takes a small
// frame's prefix, header and body out of one read of the socket, not three.
// Bodies larger than the buffer are read straight into their own slice.
func NewReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBufSize) }

// Read reads one framed message from r.
func Read(r io.Reader) (Message, error) {
	hdr, err := readPrefix(r)
	if err != nil {
		return Message{}, fmt.Errorf("protocol: read frame header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != magic {
		return Message{}, fmt.Errorf("%w: %#x", ErrBadMagic, m)
	}
	if v := hdr[4]; v != version {
		return Message{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	msg := Message{Type: MsgType(hdr[5])}
	if msg.Type < MsgModelPreSend || msg.Type > MsgChainResult {
		return Message{}, fmt.Errorf("%w: %d", ErrUnknownType, hdr[5])
	}
	hdrLen := binary.LittleEndian.Uint32(hdr[6:10])
	bodyLen := binary.LittleEndian.Uint64(hdr[10:18])
	if hdrLen > MaxHeaderLen {
		return Message{}, fmt.Errorf("%w: header %d bytes", ErrTooLarge, hdrLen)
	}
	if bodyLen > MaxBodyLen {
		return Message{}, fmt.Errorf("%w: body %d bytes", ErrTooLarge, bodyLen)
	}
	msg.Header = make([]byte, hdrLen)
	if _, err := io.ReadFull(r, msg.Header); err != nil {
		return Message{}, fmt.Errorf("protocol: read header: %w", err)
	}
	body, err := readBody(r, bodyLen)
	if err != nil {
		return Message{}, fmt.Errorf("protocol: read body: %w", err)
	}
	msg.Body = body
	return msg, nil
}

// readPrefix reads a frame's length prefix. A connection's reader
// (NewReader) hands it over in place, valid until the next read from it;
// any other reader fills a fresh slice.
func readPrefix(r io.Reader) ([]byte, error) {
	const n = prefixLen
	br, ok := r.(*bufio.Reader)
	if !ok {
		hdr := make([]byte, n)
		_, err := io.ReadFull(r, hdr)
		return hdr, err
	}
	hdr, err := br.Peek(n)
	if err == io.EOF && len(hdr) > 0 {
		err = io.ErrUnexpectedEOF // as io.ReadFull reports a torn prefix
	}
	if err != nil {
		return nil, err
	}
	br.Discard(n) //nolint:errcheck // n bytes are buffered
	return hdr, nil
}

// readBody reads exactly n body bytes without trusting n for the initial
// allocation: a corrupted length prefix claiming up to MaxBodyLen (1 GiB)
// must not allocate that much before the stream proves it actually carries
// the bytes. Allocation grows with the data actually read, chunk by chunk.
func readBody(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk {
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode builds a Message from a header struct and body.
func Encode(t MsgType, header any, body []byte) (Message, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return Message{}, fmt.Errorf("protocol: marshal %s header: %w", t, err)
	}
	return Message{Type: t, Header: h, Body: body}, nil
}

// DecodeHeader parses a message's JSON header into out.
func DecodeHeader(msg Message, out any) error {
	if err := json.Unmarshal(msg.Header, out); err != nil {
		return fmt.Errorf("protocol: unmarshal %s header: %w", msg.Type, err)
	}
	return nil
}

// RemoteError is a peer's MsgError answer to a Call, decoded.
type RemoteError struct{ ErrorHeader }

func (e *RemoteError) Error() string { return e.Message }

// Call performs one request/response exchange on a freshly dialed
// connection, the shape of every server-to-server hop (registry RPCs, peer
// blob fetches, chain relays): the whole exchange is bounded by timeout, req
// is written, one frame is read, and its header is decoded into out. A
// MsgError answer comes back as a *RemoteError carrying the peer's decoded
// header; any other frame type than want is an error. The response is
// returned for its body; verifying that against the header's checksum is the
// caller's.
func Call(conn net.Conn, timeout time.Duration, req Message, want MsgType, out any) (Message, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return Message{}, err
	}
	if err := Write(conn, req); err != nil {
		return Message{}, err
	}
	resp, err := Read(conn)
	if err != nil {
		return Message{}, err
	}
	if resp.Type == MsgError {
		remote := &RemoteError{}
		if err := DecodeHeader(resp, &remote.ErrorHeader); err != nil {
			return Message{}, err
		}
		return Message{}, remote
	}
	if resp.Type != want {
		return Message{}, fmt.Errorf("unexpected reply %s", resp.Type)
	}
	return resp, DecodeHeader(resp, out)
}
