// The connection half of the server: a connection's read loop, which reads
// whole frames and chunked bodies through one demultiplexer, and the stream
// window each request is admitted through before its handler runs.
package edge

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/sched"
)

// serveConn serves one accepted connection, or refuses it with one Error
// frame when MaxConns connections are already being served.
func (s *Server) serveConn(conn net.Conn) {
	if s.connSlots != nil {
		select {
		case s.connSlots <- struct{}{}:
			defer func() { <-s.connSlots }()
		default:
			s.connsRefused.Inc()
			msg, err := protocol.Encode(protocol.MsgError,
				protocol.ErrorHeader{Message: "edge server at connection capacity"}, nil)
			if err == nil {
				err = protocol.Write(conn, msg)
			}
			if err != nil {
				s.log.Debug("edge: refusal write failed", obs.Err(err))
			}
			return
		}
	}
	s.connsServed.Inc()
	s.handleConn(conn)
}

// deadlineReader reads from a net.Conn under two timeout regimes: waiting
// for a frame's first byte is bounded by idle, while each subsequent read —
// once the frame has started arriving — is bounded by transfer. Setting the
// deadline per read (not once per frame) is what keeps a legitimate multi-MB
// upload on a slow link alive: the old single up-front deadline killed any
// transfer whose total time exceeded the idle timeout, no matter how
// steadily bytes were flowing.
//
// The connection's frames are read through a buffer on top of it, so a
// frame may start arriving before it is read: its first bytes came in with
// the previous frame's tail. Such a frame is on the transfer clock from the
// start (startFrame).
type deadlineReader struct {
	conn           net.Conn
	idle, transfer time.Duration
	// inFrame marks that the current frame's first byte has been read, so
	// reads are on the transfer clock until startFrame resets it.
	inFrame bool
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	d := r.idle
	if r.inFrame {
		d = r.transfer
	}
	if d > 0 {
		if err := r.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
			return 0, err
		}
	}
	n, err := r.conn.Read(p)
	if n > 0 {
		r.inFrame = true
	}
	return n, err
}

// startFrame puts the next frame on the idle clock, or — when buffered
// bytes of it are already in hand — on the transfer clock.
func (r *deadlineReader) startFrame(buffered int) { r.inFrame = buffered > 0 }

// maxStreams resolves the per-connection concurrent-stream cap.
func (s *Server) maxStreams() int {
	if s.cfg.MaxStreams > 0 {
		return s.cfg.MaxStreams
	}
	return DefaultMaxStreams
}

// maxPipedUploads bounds the uploads one connection decodes as their chunks
// arrive; a further one is reassembled and decoded when its last chunk is
// in.
const maxPipedUploads = 4

// handleConn serves one client connection: a sequence of framed requests,
// each answered with exactly one response. Every request is a logical
// stream dispatched on its own goroutine, so the response order follows
// completion, not arrival, and the client demultiplexes by the echoed Seq.
// A chunked body is reassembled by the connection's demultiplexer and
// dispatched once its last chunk is in — or, for an upload, decoded as it
// arrives (receiveUpload) — so a request holds a stream slot only once its
// body is whole, and the read loop, which blocks for a slot, never waits on
// a request that needs it to read on.
func (s *Server) handleConn(conn net.Conn) {
	transfer := s.cfg.TransferTimeout
	if transfer <= 0 {
		transfer = s.cfg.IdleTimeout
	}
	dr := &deadlineReader{conn: conn, idle: s.cfg.IdleTimeout, transfer: transfer}
	dmx := protocol.NewDemux(dr)
	dmx.Lend, dmx.FrameStart = lendText, dr.startFrame
	pipes := make(chan struct{}, maxPipedUploads)
	dmx.Pipe = func(t protocol.MsgType) bool {
		if t != protocol.MsgModelPreSend {
			return false
		}
		select {
		case pipes <- struct{}{}:
			return true
		default:
			return false
		}
	}
	cw := protocol.NewWriter(conn)
	// slots caps this connection's in-flight streams; a full window blocks
	// the read loop, so flow control is the transport's backpressure.
	slots := make(chan struct{}, s.maxStreams())
	var streams sync.WaitGroup
	defer streams.Wait()
	for {
		msg, err := dmx.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.log.Info("edge: connection closed on read error", obs.Err(err))
			}
			return
		}
		if msg.Stream == nil {
			s.dispatchStream(conn, cw, slots, &streams, s.newRequest(msg))
			continue
		}
		streams.Add(1)
		go func() {
			defer streams.Done()
			defer func() { <-pipes }()
			s.dispatchStream(conn, cw, slots, &streams, s.receiveUpload(msg))
		}()
	}
}

// request is one admitted frame with its header decoded, once, by
// newRequest: hdr is what protocol.DecodeFrame returned, env its envelope,
// hdrErr its error. span is the server's span tree for the request, begun at
// start, when the frame — its body whole — asked for a stream slot: its
// handler adds stages (or, for a pre-send, the fleet hops that resolved it)
// and answers with the closed root, and a failed request goes to the flight
// ring with the tree as far as it got. upload is a piped upload's outcome,
// decoded before the request began.
type request struct {
	msg    protocol.Message
	hdr    any
	env    protocol.Envelope
	hdrErr error
	start  time.Time
	span   *protocol.SpanNode
	upload *upload
}

// newRequest begins the request of one frame: its header decoded, its span
// started. An undecodable header dispatches as stream 0; the handler reports
// the decode error in an error frame, which the client takes as being about
// the whole connection.
func (s *Server) newRequest(msg protocol.Message) *request {
	hdr, env, hdrErr := protocol.DecodeFrame(msg)
	return &request{msg: msg, hdr: hdr, env: env, hdrErr: hdrErr, start: time.Now(),
		span: &protocol.SpanNode{Op: protocol.SpanServe, Addr: s.cfg.AdvertiseAddr}}
}

// finish closes the request's span: its root now covers the server's whole
// share, from the frame's stream-slot wait to the response.
func (r *request) finish() *protocol.SpanNode {
	r.span.Micros = time.Since(r.start).Microseconds()
	return r.span
}

// dispatchStream admits one request as a stream: it waits for a stream slot,
// and only then hands the request to a handler goroutine that holds the slot
// until its response is written.
func (s *Server) dispatchStream(conn net.Conn, cw *protocol.Writer, slots chan struct{}, streams *sync.WaitGroup, req *request) {
	// The stream-semaphore wait is where backpressure bites; it is the span's
	// first stage, so the stream_wait stage histogram exposes a saturated
	// window.
	slots <- struct{}{}
	req.span.AddStage(protocol.SpanStreamWait, time.Since(req.start))
	// The request is admitted here, before its goroutine starts: either
	// Close has not begun and will wait for it, or it has and the stream is
	// refused with one Error frame.
	if !s.conns.Enter() {
		<-slots
		s.errorsAnswered.Inc()
		resp, err := protocol.Encode(protocol.MsgError, protocol.ErrorHeader{Message: "edge: server closed", Seq: req.env.Seq}, nil)
		if err == nil {
			err = cw.Write(resp, time.Time{})
		}
		if err != nil {
			s.log.Debug("edge: refusal write failed", obs.Err(err))
		}
		return
	}
	s.muxRequests.Inc()
	s.muxActive.Add(1)
	streams.Add(1)
	go func() {
		defer streams.Done()
		defer s.muxActive.Add(-1)
		defer func() { <-slots }()
		defer s.conns.Leave()
		if err := s.serveRequest(cw, req); err != nil {
			// The shared socket is broken; close it so the read loop and
			// sibling streams unwind.
			conn.Close()
		}
	}()
}

// serveRequest dispatches one request and writes its response under the
// request's seq — a body over protocol.ChunkThreshold in chunks, to a client
// whose request said it reads them; dispatchStream admits it into conns, so
// Close lets the final frame flush before terminating the connection.
func (s *Server) serveRequest(cw *protocol.Writer, req *request) error {
	resp, err := s.dispatch(req)
	if err != nil {
		// A failed request is the client's business; a panicking executor
		// is the server's.
		logFailure := s.log.Debug
		if errors.Is(err, sched.ErrExecutorPanic) {
			logFailure = s.log.Error
		}
		logFailure("edge: request failed", slog.Any("type", req.msg.Type.String()), obs.Err(err))
		s.errorsAnswered.Inc()
		hdr := protocol.ErrorHeader{Message: err.Error(), Seq: req.env.Seq}
		var oe *overloadError
		if errors.As(err, &oe) {
			hdr.Message = oe.err.Error()
			hdr.Overloaded = oe.overloaded
			hdr.Load = s.loadHint()
		}
		// A chain failure additionally locates the failed hop so the
		// client's re-planner can exclude it from the next manifest.
		var ce *chainError
		if errors.As(err, &ce) {
			hdr.ChainHop = ce.hop
		}
		s.recordFailure(req, err, oe)
		resp, err = protocol.Encode(protocol.MsgError, hdr, nil)
		if err != nil {
			return err
		}
	}
	if req.env.Hints&protocol.HintChunks != 0 && len(resp.Body) > protocol.ChunkThreshold {
		err = cw.WriteChunked(resp, req.env.Seq, nil, time.Time{})
	} else {
		err = cw.Write(resp, time.Time{})
	}
	if err != nil {
		s.log.Debug("edge: response write failed", obs.Err(err))
		return err
	}
	return nil
}
