package edge

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"websnap/internal/protocol"
)

// chunkedHeader is the header frame of a chunked body of stream seq that
// declares declared bytes.
func chunkedHeader(t *testing.T, seq uint64, typ protocol.MsgType, declared uint64) []byte {
	t.Helper()
	hdr, err := protocol.Encode(typ, protocol.SnapshotHeader{AppID: "a", Seq: seq}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 26, 26+len(hdr.Header))
	binary.LittleEndian.PutUint32(b[0:], 0x57534e50)
	b[4], b[5] = 1, byte(typ)|0x80
	binary.LittleEndian.PutUint32(b[6:], uint32(len(hdr.Header)))
	binary.LittleEndian.PutUint64(b[10:], declared)
	binary.LittleEndian.PutUint64(b[18:], seq)
	return append(b, hdr.Header...)
}

// chunkFrame is one chunk frame of stream seq; a last one carries crc.
func chunkFrame(seq uint64, data []byte, last bool, crc uint32) []byte {
	b := make([]byte, 18, 18+len(data)+4)
	binary.LittleEndian.PutUint32(b[0:], 0x57534e50)
	b[4], b[5] = 1, 0x7f
	binary.LittleEndian.PutUint64(b[6:], seq)
	n := uint32(len(data))
	if last {
		n |= 1 << 31
	}
	binary.LittleEndian.PutUint32(b[14:], n)
	b = append(b, data...)
	if last {
		b = binary.LittleEndian.AppendUint32(b, crc)
	}
	return b
}

// TestCorruptChunkedBodyIsCleanError: a chunked request whose chunks do not
// match the CRC its last chunk carries is answered with an error frame under
// its stream, and the connection goes on serving.
func TestCorruptChunkedBodyIsCleanError(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := []byte("not what the checksum says")
	ping, err := protocol.Encode(protocol.MsgPing, protocol.PingHeader{Seq: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{
		chunkedHeader(t, 1, protocol.MsgSnapshot, uint64(len(body))),
		chunkFrame(1, body, false, 0),
		chunkFrame(1, nil, true, protocol.BodyChecksum(body)^1),
	} {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := protocol.Write(conn, ping); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := map[protocol.MsgType]uint64{}
	for range 2 {
		msg, err := protocol.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		_, env, err := protocol.DecodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		got[msg.Type] = env.Seq
	}
	if seq, ok := got[protocol.MsgError]; !ok || seq != 1 || got[protocol.MsgPong] != 2 {
		t.Errorf("answers %v, want an error frame for stream 1 and a pong for stream 2", got)
	}
}

// TestChunkMemoryBoundedPerConn: 256 streams on one connection each declare
// a 1 GiB body and drip chunks of it. What is declared but not sent holds no
// memory: the server's heap grows by less than the bytes sent — twice over,
// since a reassembled body's storage at most doubles past what has arrived —
// plus the connection's chunk budget and 8 MB of slack for the streams'
// bookkeeping. A Ping on the same connection still answers.
func TestChunkMemoryBoundedPerConn(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const (
		streams = protocol.MaxOpenBodies
		drips   = 4
		drip    = 16 << 10
	)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	chunk := make([]byte, drip)
	for seq := uint64(1); seq <= streams; seq++ {
		if _, err := conn.Write(chunkedHeader(t, seq, protocol.MsgSnapshot, protocol.MaxBodyLen)); err != nil {
			t.Fatal(err)
		}
	}
	var sent int64
	for range drips {
		for seq := uint64(1); seq <= streams; seq++ {
			if _, err := conn.Write(chunkFrame(seq, chunk, false, 0)); err != nil {
				t.Fatal(err)
			}
			sent += drip
		}
	}

	ping, err := protocol.Encode(protocol.MsgPing, protocol.PingHeader{Seq: streams + 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.Write(conn, ping); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	pong, err := protocol.Read(conn)
	if err != nil || pong.Type != protocol.MsgPong {
		t.Fatalf("the Ping behind 256 open bodies was answered %v (err %v)", pong.Type, err)
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if bound := 2*sent + protocol.ChunkBudget + 8<<20; grew > bound {
		t.Errorf("%d streams declaring 1 GiB each, %d bytes sent: the heap grew %d bytes, want under %d", streams, sent, grew, bound)
	}
	t.Logf("%d bytes sent, heap grew %d", sent, grew)
}
