package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// Chunked bodies. A body longer than ChunkThreshold, sent to a peer that has
// said it reads chunks (HintChunks), travels as its header frame — the frame
// prefix with chunkedFlag on the type byte, then the stream's Seq, then the
// JSON header, and no body — followed by chunk frames of at most ChunkSize
// bytes tagged with that Seq. A writer takes the connection for one frame at
// a time, so a sibling stream's frame waits for at most one chunk; the
// receiver's Demux routes the chunks by Seq.
const (
	// ChunkSize bounds the data of one chunk frame: 17.5 ms of a 30 Mbit/s
	// link, the longest a Ping waits behind a large body.
	ChunkSize = 64 << 10
	// ChunkThreshold is the body length above which a body travels in
	// chunks to a peer that reads them; shorter ones go whole.
	ChunkThreshold = 256 << 10
	// ChunkBudget bounds the chunk bytes a connection's Demux holds that a
	// piped body's reader has not read yet; the read loop waits for the
	// reader beyond it.
	ChunkBudget = 4 << 20
	// MaxOpenBodies bounds the chunked bodies open on one connection at
	// once.
	MaxOpenBodies = 256
)

// HintChunks, in the Hints of a response, says the sender reads chunked
// bodies and weight blobs packed in segments (nn.PackWeights); in a snapshot
// request's Hints, that the client reads chunked results.
const HintChunks = 16

const (
	// chunkedFlag on a frame's type byte marks the header frame of a chunked
	// body: its bodyLen is the body's length, or zero when the sender does
	// not know it up front (a body packed as it is sent).
	chunkedFlag = 0x80
	// msgChunk is the type byte of a chunk frame: magic, version, msgChunk,
	// seq uint64, n uint32, then the data; n's lastChunk bit marks the
	// stream's last chunk, whose data is followed by the body's CRC
	// (BodyChecksum of all its chunks).
	msgChunk  = 0x7f
	lastChunk = 1 << 31
	// openLen is the length of a chunked header frame's fixed part: the
	// frame prefix and the Seq.
	openLen = prefixLen + 8
)

// ErrBadChunk marks a chunk stream that breaks the framing rules: a chunk for
// a stream that is not open, a Seq opened twice, a chunk over ChunkSize, or
// more bytes than the body declared.
var ErrBadChunk = errors.New("protocol: bad chunk")

// Writer writes one connection's frames, each under its lock: a whole frame
// in one vectored write, a chunked body as its header frame and then one
// write per chunk.
type Writer struct {
	mu sync.Mutex
	w  io.Writer
	// head, parts and vec hold the frame being written (under mu), so
	// writing a chunk allocates nothing.
	head  [openLen]byte
	parts [3][]byte
	vec   net.Buffers
}

// NewWriter returns the frame writer of connection w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write writes msg as one frame. A non-zero deadline bounds the write, when w
// is a net.Conn.
func (w *Writer) Write(msg Message, deadline time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.deadline(deadline)()
	return Write(w.w, msg)
}

// WriteChunked writes msg as the chunked body of stream seq: the header
// frame, then the body as chunk frames, the last carrying the body's CRC. The
// body is msg.Body, or, when produce is non-nil, the pieces produce hands to
// send as it makes them, in a length not declared up front. A body produce
// fails to finish ends with a CRC that does not match, so the receiver fails
// that stream alone. A non-zero deadline bounds every write.
func (w *Writer) WriteChunked(msg Message, seq uint64, produce func(send func([]byte) error) error, deadline time.Time) error {
	if len(msg.Header) > MaxHeaderLen {
		return fmt.Errorf("%w: header %d bytes", ErrTooLarge, len(msg.Header))
	}
	declared := len(msg.Body)
	if produce != nil {
		declared = 0
	}
	if declared > MaxBodyLen {
		return fmt.Errorf("%w: body %d bytes", ErrTooLarge, declared)
	}
	w.mu.Lock()
	putPrefix(w.head[:], msg.Type|chunkedFlag, len(msg.Header), uint64(declared))
	binary.LittleEndian.PutUint64(w.head[prefixLen:], seq)
	err := w.frame(deadline, w.head[:openLen], msg.Header)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	var crc uint32
	send := func(p []byte) error {
		for len(p) > 0 && err == nil {
			n := min(len(p), ChunkSize)
			crc = crc32.Update(crc, crcTable, p[:n])
			err = w.chunk(seq, p[:n], 0, 0, deadline)
			p = p[n:]
		}
		return err
	}
	var perr error
	if produce == nil {
		send(msg.Body) //nolint:errcheck // kept in err
	} else {
		perr = produce(send)
	}
	if err != nil {
		return err
	}
	if perr != nil {
		crc = ^crc
	}
	if err := w.chunk(seq, nil, lastChunk, crc, deadline); err != nil {
		return err
	}
	return perr
}

// chunk writes one chunk frame of stream seq.
func (w *Writer) chunk(seq uint64, data []byte, last, crc uint32, deadline time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.head[:prefixLen]
	binary.LittleEndian.PutUint32(h[0:4], magic)
	h[4], h[5] = version, msgChunk
	binary.LittleEndian.PutUint64(h[6:14], seq)
	binary.LittleEndian.PutUint32(h[14:18], uint32(len(data))|last)
	var sum []byte
	if last != 0 {
		sum = binary.LittleEndian.AppendUint32(w.head[prefixLen:prefixLen], crc)
	}
	return w.frame(deadline, h, data, sum)
}

// frame writes the non-empty parts as one vectored write, under w.mu.
func (w *Writer) frame(deadline time.Time, parts ...[]byte) error {
	defer w.deadline(deadline)()
	w.vec = w.parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			w.vec = append(w.vec, p)
		}
	}
	_, err := w.vec.WriteTo(w.w)
	w.parts, w.vec = [3][]byte{}, nil // hold on to none of the body
	if err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// deadline sets a non-zero write deadline on a net.Conn and returns what
// clears it.
func (w *Writer) deadline(d time.Time) func() {
	c, ok := w.w.(interface{ SetWriteDeadline(time.Time) error })
	if d.IsZero() || !ok {
		return func() {}
	}
	// Best effort: should setting a deadline fail, the caller's own timer
	// still bounds its wait.
	c.SetWriteDeadline(d)                             //nolint:errcheck
	return func() { c.SetWriteDeadline(time.Time{}) } //nolint:errcheck
}

// Demux reads one connection's frames: whole frames as they are, and chunked
// bodies, routed by Seq, either reassembled — Next returns the frame once its
// last chunk is in, with the body in storage Lend lent or the demux grew from
// what arrived — or piped: Next returns the header frame at once, and the
// body is read from its Stream as it arrives. Piped chunk bytes that have not
// been read yet are held up to ChunkBudget per connection; past it, Next
// waits for the readers.
type Demux struct {
	r *bufio.Reader
	// Lend returns storage for the body of a frame of type t, which holds a
	// whole or reassembled body when its capacity does; nil lends nothing.
	Lend func(t MsgType) []byte
	// Pipe reports whether the chunked body of a frame of type t is piped;
	// nil pipes nothing.
	Pipe func(t MsgType) bool
	// Presize is how much of a reassembled body's declared length is
	// allocated before its chunks arrive. Beyond it, storage grows with what
	// arrives, so that what a sender declares but does not send holds no
	// memory.
	Presize int
	// FrameStart, when set, is called before each frame is read with the
	// bytes of it already buffered.
	FrameStart func(buffered int)

	mu sync.Mutex
	// cond wakes piped readers when chunks arrive or streams end, and Next
	// when piped bytes are read.
	cond     sync.Cond
	streams  map[uint64]*Stream
	buffered int // piped bytes held, not yet read
}

// NewDemux returns the demultiplexer reading connection r's frames through
// a connection reader (NewReader).
func NewDemux(r io.Reader) *Demux {
	d := &Demux{r: NewReader(r), streams: make(map[uint64]*Stream)}
	d.cond.L = &d.mu
	return d
}

// Stream is one chunked body as the Demux receives it. A piped stream is read
// with Read and let go with Close.
type Stream struct {
	d        *Demux
	msg      Message // the header frame; the body, once reassembled
	declared uint64  // the declared length; zero for unknown
	n        uint64  // bytes received
	crc      uint32
	piped    bool
	// queue holds a piped stream's unread chunks (chunkBufs storage), off
	// how much of queue[0] has been read.
	queue  [][]byte
	off    int
	closed bool // the reader let go: chunks are dropped
	done   bool // the last chunk is in, or the connection failed
	err    error
	end    time.Time
}

// chunkBufs holds the storage of piped chunks between the read loop and the
// reader.
var chunkBufs = sync.Pool{New: func() any { return new([ChunkSize]byte) }}

// Next returns the connection's next frame for the caller: a whole frame; a
// reassembled chunked frame, whose Err is set (and Body nil) when the body's
// chunks do not match its CRC; or the header frame of a piped body, with its
// Stream. Chunk frames are routed to their stream. An error means the frame
// stream can no longer be trusted; every open stream fails with it.
func (d *Demux) Next() (Message, error) {
	for {
		msg, err := d.next()
		if err != nil {
			d.fail(err)
			return Message{}, err
		}
		if msg.Type != 0 {
			return msg, nil
		}
	}
}

// next reads one frame: it returns a zero Message for a frame that was not
// the caller's.
func (d *Demux) next() (Message, error) {
	if d.FrameStart != nil {
		d.FrameStart(d.r.Buffered())
	}
	p, err := readPrefix(d.r)
	if err != nil {
		return Message{}, fmt.Errorf("protocol: read frame header: %w", err)
	}
	var prefix [prefixLen]byte
	copy(prefix[:], p)
	if err := checkPrefix(prefix[:]); err != nil {
		return Message{}, err
	}
	switch t := prefix[5]; {
	case t == msgChunk:
		n := binary.LittleEndian.Uint32(prefix[14:18])
		return d.chunk(binary.LittleEndian.Uint64(prefix[6:14]), n&^lastChunk, n&lastChunk != 0)
	case t&chunkedFlag != 0:
		return d.open(prefix[:])
	default:
		return readFrame(d.r, prefix[:], d.Lend)
	}
}

// open reads the header frame of a chunked body and opens its stream.
func (d *Demux) open(prefix []byte) (Message, error) {
	t := MsgType(prefix[5] &^ chunkedFlag)
	hdrLen, declared, err := frameLens(t, prefix)
	if err != nil {
		return Message{}, err
	}
	var seqBuf [8]byte
	if _, err := io.ReadFull(d.r, seqBuf[:]); err != nil {
		return Message{}, fmt.Errorf("protocol: read stream id: %w", err)
	}
	seq := binary.LittleEndian.Uint64(seqBuf[:])
	msg := Message{Type: t, Header: make([]byte, hdrLen)}
	if _, err := io.ReadFull(d.r, msg.Header); err != nil {
		return Message{}, fmt.Errorf("protocol: read header: %w", err)
	}
	st := &Stream{d: d, msg: msg, declared: declared, piped: d.Pipe != nil && d.Pipe(t)}
	if !st.piped && d.Lend != nil {
		st.msg.Body = d.Lend(t)[:0]
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.streams[seq] != nil:
		return Message{}, fmt.Errorf("%w: stream %d opened twice", ErrBadChunk, seq)
	case len(d.streams) >= MaxOpenBodies:
		return Message{}, fmt.Errorf("%w: more than %d bodies open", ErrBadChunk, MaxOpenBodies)
	}
	d.streams[seq] = st
	if !st.piped {
		return Message{}, nil
	}
	msg.Stream = st
	return msg, nil
}

// chunk reads one chunk frame of n data bytes into stream seq: into a piped
// stream's queue, within the budget, or onto a reassembled body. The last
// chunk closes the stream and returns a reassembled body's frame.
func (d *Demux) chunk(seq uint64, n uint32, last bool) (Message, error) {
	d.mu.Lock()
	st := d.streams[seq]
	d.mu.Unlock()
	switch limit := uint64(MaxBodyLen); {
	case st == nil:
		return Message{}, fmt.Errorf("%w: chunk for stream %d, which is not open", ErrBadChunk, seq)
	case n > ChunkSize:
		return Message{}, fmt.Errorf("%w: %d bytes in one chunk", ErrBadChunk, n)
	case st.declared > 0 && st.n+uint64(n) > st.declared, st.n+uint64(n) > limit:
		return Message{}, fmt.Errorf("%w: stream %d runs past its %d bytes", ErrBadChunk, seq, st.declared)
	}
	var err error
	if st.piped {
		err = d.pipeChunk(st, int(n))
	} else {
		err = d.appendChunk(st, int(n))
	}
	if err != nil || !last {
		return Message{}, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(d.r, sum[:]); err != nil {
		return Message{}, fmt.Errorf("protocol: read chunk checksum: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.streams, seq)
	st.done, st.end = true, time.Now()
	if got, want := st.crc, binary.LittleEndian.Uint32(sum[:]); got != want || st.declared > 0 && st.n != st.declared {
		st.err = fmt.Errorf("%w: stream %d: %d of %d bytes, checksum %#08x, last chunk says %#08x", ErrChecksum, seq, st.n, st.declared, got, want)
	}
	d.cond.Broadcast()
	if st.piped {
		return Message{}, nil
	}
	msg := st.msg
	if msg.Err = st.err; msg.Err != nil {
		msg.Body = nil
	}
	return msg, nil
}

// appendChunk reads n bytes onto a reassembled body, growing its storage by
// doubling from what has arrived (or the presized declared length).
func (d *Demux) appendChunk(st *Stream, n int) error {
	body := st.msg.Body
	if need := len(body) + n; need > cap(body) {
		grown := max(2*cap(body), need)
		if cap(body) == 0 && st.declared > 0 {
			grown = max(need, min(int(st.declared), d.Presize))
		}
		if st.declared > 0 {
			grown = min(grown, max(int(st.declared), need))
		}
		body = append(make([]byte, 0, grown), body...)
	}
	data := body[len(body) : len(body)+n]
	if _, err := io.ReadFull(d.r, data); err != nil {
		return fmt.Errorf("protocol: read chunk: %w", err)
	}
	st.crc = crc32.Update(st.crc, crcTable, data)
	st.n += uint64(n)
	st.msg.Body = body[:len(body)+n]
	return nil
}

// pipeChunk reads n bytes into a piped stream's queue, once the budget has
// room for them — or into nothing, when its reader has let go.
func (d *Demux) pipeChunk(st *Stream, n int) error {
	d.mu.Lock()
	for d.buffered > 0 && d.buffered+n > ChunkBudget && !st.closed {
		d.cond.Wait()
	}
	closed := st.closed
	if !closed {
		d.buffered += n
	}
	d.mu.Unlock()
	var buf *[ChunkSize]byte
	var err error
	if closed {
		_, err = io.CopyN(io.Discard, d.r, int64(n))
	} else {
		buf = chunkBufs.Get().(*[ChunkSize]byte)
		_, err = io.ReadFull(d.r, buf[:n])
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		if buf != nil {
			d.buffered -= n
			chunkBufs.Put(buf)
		}
		return fmt.Errorf("protocol: read chunk: %w", err)
	}
	if buf != nil {
		st.crc = crc32.Update(st.crc, crcTable, buf[:n])
		if st.closed { // let go while the chunk was read
			d.buffered -= n
			chunkBufs.Put(buf)
		} else {
			st.queue = append(st.queue, buf[:n])
			d.cond.Broadcast()
		}
	}
	st.n += uint64(n)
	return nil
}

// fail ends every open stream with err: the connection is gone.
func (d *Demux) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for seq, st := range d.streams {
		st.done, st.err = true, err
		delete(d.streams, seq)
	}
	d.cond.Broadcast()
}

// Read reads a piped body as it arrives. At its end it returns io.EOF, or
// ErrChecksum when the chunks do not match the body's CRC, or the error that
// ended the connection.
func (s *Stream) Read(p []byte) (int, error) {
	d := s.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(s.queue) == 0 && !s.done {
		d.cond.Wait()
	}
	if len(s.queue) == 0 {
		if s.err != nil {
			return 0, s.err
		}
		return 0, io.EOF
	}
	n := copy(p, s.queue[0][s.off:])
	if s.off += n; s.off == len(s.queue[0]) {
		s.release(s.queue[0])
		s.queue, s.off = s.queue[1:], 0
	}
	return n, nil
}

// release gives one read chunk's storage and budget back, under d.mu.
func (s *Stream) release(chunk []byte) {
	s.d.buffered -= len(chunk)
	chunkBufs.Put((*[ChunkSize]byte)(chunk[:ChunkSize]))
	s.d.cond.Broadcast()
}

// Close lets go of a piped body: what is held of it is dropped, and chunks
// still to come are read and dropped.
func (s *Stream) Close() error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	s.closed = true
	for _, c := range s.queue {
		s.release(c)
	}
	s.queue = nil
	return nil
}

// Declared returns the body's declared length; zero when the sender did not
// know it up front.
func (s *Stream) Declared() int64 { return int64(s.declared) }

// End returns when the body's last chunk arrived; zero while it has not.
func (s *Stream) End() time.Time {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	return s.end
}
