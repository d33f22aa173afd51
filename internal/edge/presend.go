// The pre-send half of the server (§III.B.1): a model offered by its content
// key is resolved from the store or a fleet peer; an uploaded one is decoded
// — as its chunks arrive, when it comes chunked — and stored under what its
// weights hash to.
package edge

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
)

// decodeModel rebuilds a network from a pre-send header's spec and a
// weight blob.
func decodeModel(hdr protocol.ModelPreSendHeader, weights []byte) (*nn.Network, error) {
	net, err := nn.DecodeModel(hdr.Spec, weights)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", hdr.ModelName, err)
	}
	return net, nil
}

// handleModelPreSend stores the client's model files and acknowledges, per
// §III.B.1: "The server saves the files and sends an acknowledgement (ACK)
// message to the client." The client offers a reference first (RefOnly +
// BlobKey): the server resolves the model from its store or, fleet-joined,
// a peer, and answers NeedBlob when it cannot, telling the client to send
// the weights. The ack's span is the request's, stream-slot wait included;
// a pre-send is no served request, so it feeds no SLO, stage histogram or
// trace log.
func (s *Server) handleModelPreSend(req *request, hdr *protocol.ModelPreSendHeader) (protocol.Message, error) {
	req.span.Op, req.span.Detail = protocol.SpanPresendResolve, hdr.BlobKey
	// ack answers under the request's span, whose root is the server's share
	// of the round trip, so the client can read its uplink off the rest.
	ack := func(needBlob bool) (protocol.Message, error) {
		return protocol.Encode(protocol.MsgAck, protocol.AckHeader{
			AppID:     hdr.AppID,
			ModelName: hdr.ModelName,
			Seq:       hdr.Seq,
			Load:      s.loadHint(),
			NeedBlob:  needBlob,
			Span:      req.finish(),
			Hints:     protocol.HintPackedBody | protocol.HintPackedWeights | protocol.HintChunks,
		}, nil)
	}
	var (
		net *nn.Network
		key = hdr.BlobKey
		err error
	)
	if hdr.RefOnly {
		if net, err = s.resolveModel(*hdr, req); err != nil {
			s.refPreSendMisses.Inc()
			s.log.Debug("edge: ref pre-send unresolved", slog.Any("model", hdr.ModelName), slog.Any("blob", hdr.BlobKey), obs.Err(err))
			return ack(true)
		}
		s.refPreSendHits.Inc()
	} else if net, key, err = s.uploaded(req, hdr); err != nil {
		return protocol.Message{}, err
	}
	if err := s.store.putKeyed(hdr.AppID, hdr.ModelName, key, net); err != nil {
		// The in-memory copy is in place; persistence failure only
		// affects restarts. Log and keep serving.
		s.log.Warn("edge: model persist failed", slog.Any("model", hdr.ModelName), obs.Err(err))
	}
	s.modelsStored.Inc()
	s.log.Debug("edge: model stored", slog.Any("model", hdr.ModelName), slog.Any("appId", hdr.AppID),
		slog.Any("params", net.TotalParams()), slog.Any("ref", hdr.RefOnly))
	return ack(false)
}

// upload is what decoding an uploaded pre-send's body came to.
type upload struct {
	net *nn.Network
	key string
	err error
}

// receiveUpload decodes a piped upload as its chunks arrive and returns the
// request it is once its last chunk is in: the request's span starts there,
// so the time the chunks took is the link's, and only what was left to
// decode after the last byte is the server's.
func (s *Server) receiveUpload(msg protocol.Message) *request {
	st := msg.Stream
	req := s.newRequest(msg)
	var up upload
	if hdr, ok := req.hdr.(*protocol.ModelPreSendHeader); ok && req.hdrErr == nil && !hdr.RefOnly && s.Installed() {
		up.net, up.key, up.err = s.decodeUpload(hdr, st, st.Declared())
	} else {
		up.err = errors.New("edge: a streamed body no pre-send expects")
	}
	st.Close() // drop what is left of a body that failed to decode
	if end := st.End(); !end.IsZero() {
		req.start = end
	} else {
		req.start = time.Now()
	}
	req.upload = &up
	return req
}

// decodeUpload decodes an uploaded pre-send's body of size bytes — packed,
// or the raw blob — into the model, keyed by what the weights hash to,
// whatever key the client names for it: the decoded blob is byte for byte
// the model's EncodeWeights, so hashing it as it arrives gives
// nn.Fingerprint. A whole body is checked against its header's checksum
// first; a chunked one's checksum ends it, and a body that does not match
// is refused even when it decoded.
func (s *Server) decodeUpload(hdr *protocol.ModelPreSendHeader, body io.Reader, size int64) (*nn.Network, string, error) {
	failed := func(err error) (*nn.Network, string, error) {
		return nil, "", fmt.Errorf("model %q weights: %w", hdr.ModelName, err)
	}
	wire := &countReader{r: body}
	blob, blobLen := io.Reader(wire), size
	switch hdr.Encoding {
	case protocol.EncodingRaw:
		if size <= 0 {
			return failed(errors.New("a raw upload of undeclared length"))
		}
	case protocol.EncodingPacked:
		if hdr.PlainLen > protocol.MaxBodyLen {
			return failed(fmt.Errorf("%w: packed weights declare %d bytes", protocol.ErrTooLarge, hdr.PlainLen))
		}
		var err error
		if blob, err = nn.NewWeightsReader(wire, hdr.PlainLen, hdr.Segment); err != nil {
			return failed(err)
		}
		blobLen = hdr.PlainLen
	default:
		return failed(fmt.Errorf("unknown body encoding %q", hdr.Encoding))
	}
	net, key, err := nn.DecodeModelFrom(hdr.Spec, blob, blobLen)
	if err != nil {
		return nil, "", fmt.Errorf("model %q: %w", hdr.ModelName, err)
	}
	// The body's end carries its verdict: the checksum of a chunked one.
	if _, err := io.Copy(io.Discard, wire); err != nil {
		return failed(err)
	}
	counter := s.presendRaw
	if hdr.Encoding == protocol.EncodingPacked {
		counter = s.presendPacked
	}
	counter.Add(wire.n)
	return net, key, nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// uploaded is the model a request uploaded: decoded as its chunks arrived,
// or from its whole body now.
func (s *Server) uploaded(req *request, hdr *protocol.ModelPreSendHeader) (*nn.Network, string, error) {
	if up := req.upload; up != nil {
		return up.net, up.key, up.err
	}
	body := req.msg.Body
	if err := protocol.VerifyBody(body, hdr.BodyCRC); err != nil {
		return nil, "", fmt.Errorf("model %q weights: %w", hdr.ModelName, err)
	}
	return s.decodeUpload(hdr, bytes.NewReader(body), int64(len(body)))
}
