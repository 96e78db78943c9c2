package mobile_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"perdnn/internal/dnn"
	"perdnn/internal/geo"
	"perdnn/internal/mobile"
)

// frameKillProxy forwards wire frames between client and backend and can
// be armed to sever both directions after forwarding exactly N complete
// client→server frames. Frame-granular kills keep the scenario clean: the
// backend never sees a truncated frame, so every forwarded upload unit
// demonstrably landed. The proxy keeps accepting afterwards, so the
// client's reconnect-and-resume path gets a live (and from then on
// transparent) route.
type frameKillProxy struct {
	ln      net.Listener
	backend string

	// remaining counts armed client→server frames; large when disarmed,
	// the kill fires on the transition to 0.
	remaining atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newFrameKillProxy(t *testing.T, backend string) *frameKillProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameKillProxy{ln: ln, backend: backend, conns: make(map[net.Conn]struct{})}
	p.remaining.Store(1 << 40) // disarmed
	go p.serve()
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck // test teardown
		p.killActive()
	})
	return p
}

func (p *frameKillProxy) Addr() string { return p.ln.Addr().String() }

// armAfter schedules the kill: sever everything once n more complete
// client→server frames have been forwarded.
func (p *frameKillProxy) armAfter(n int64) { p.remaining.Store(n) }

func (p *frameKillProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			_ = c.Close()
			continue
		}
		p.mu.Lock()
		p.conns[c] = struct{}{}
		p.conns[b] = struct{}{}
		p.mu.Unlock()
		go p.pipeFrames(b, c) // client → server, frame-parsed and counted
		go func() {           // server → client, transparent
			_, _ = io.Copy(c, b)
			p.drop(c)
			p.drop(b)
		}()
	}
}

// pipeFrames forwards src's bytes to dst one wire frame at a time (6-byte
// header, big-endian length), decrementing the armed counter per frame and
// killing every connection when it hits zero.
func (p *frameKillProxy) pipeFrames(dst, src net.Conn) {
	br := bufio.NewReader(src)
	var hdr [6]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		n := binary.BigEndian.Uint32(hdr[2:6])
		frame := make([]byte, 6+int(n))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[6:]); err != nil {
			break
		}
		if _, err := dst.Write(frame); err != nil {
			break
		}
		if p.remaining.Add(-1) == 0 {
			p.killActive()
			break
		}
	}
	p.drop(dst)
	p.drop(src)
}

func (p *frameKillProxy) drop(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	_ = c.Close()
}

func (p *frameKillProxy) killActive() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// planBytes prices the client's current server-layer set, the ground truth
// for the edge daemon's upload_bytes_total after a complete upload.
func planBytes(t *testing.T, client *mobile.Client) int64 {
	t.Helper()
	model, err := dnn.ZooModel(dnn.ModelMobileNet)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, id := range client.ServerLayers() {
		sum += model.Layer(id).WeightBytes
	}
	return sum
}

// TestWindowedUploadStreams drives the happy path of the streaming upload:
// one UploadAllContext call pushes every schedule unit with windowed acks,
// the edge ends up with the full server-side layer set priced exactly
// once, and queries offload.
func TestWindowedUploadStreams(t *testing.T) {
	ctx := context.Background()
	masterAddr, edges, m, servers := liveCluster(t)
	client := dialFastClient(t, masterAddr)

	serverA := m.Placement().ServerAt(edges[0].Location)
	if serverA == geo.NoServer {
		t.Fatal("no cell for edge A")
	}
	if err := client.ConnectContext(ctx, serverA, edges[0].Addr); err != nil {
		t.Fatal(err)
	}
	_, total := client.CacheState()
	if total == 0 {
		t.Fatal("plan has no server layers")
	}

	n, err := client.UploadAllContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("streaming upload pushed no units")
	}
	if present, tot := client.CacheState(); present != tot {
		t.Fatalf("streaming upload incomplete: %d/%d", present, tot)
	}
	// Idempotent: nothing left to stream.
	if n2, err := client.UploadAllContext(ctx); err != nil || n2 != 0 {
		t.Fatalf("second UploadAll: n=%d err=%v, want 0 units", n2, err)
	}
	if got, want := servers[0].Metrics().Counter("upload_bytes_total").Value(), planBytes(t, client); got != want {
		t.Errorf("edge priced %d upload bytes, want exactly %d", got, want)
	}
	if got := servers[0].Metrics().Counter("uploads_total").Value(); got != int64(n) {
		t.Errorf("edge counted %d uploads, client streamed %d units", got, n)
	}
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestKillMidStreamResumesWithoutResend is the tentpole's crash-safety
// proof: the proxy severs the connection after exactly two upload units
// crossed, mid-window, and the client must reconnect, resync the edge's
// cache over MsgHasRequest, and stream only what is missing. The edge's
// byte counter equals the plan total afterwards — units that landed before
// the kill (acked or not) were not re-sent.
func TestKillMidStreamResumesWithoutResend(t *testing.T) {
	ctx := context.Background()
	masterAddr, edges, m, servers := liveCluster(t)
	proxy := newFrameKillProxy(t, edges[0].Addr)
	client := dialFastClient(t, masterAddr)

	serverA := m.Placement().ServerAt(edges[0].Location)
	if serverA == geo.NoServer {
		t.Fatal("no cell for edge A")
	}
	if err := client.ConnectContext(ctx, serverA, proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	_, total := client.CacheState()
	if total < 2 {
		t.Fatalf("plan too small to interrupt: %d server layers", total)
	}

	// Arm after Connect so the resync handshake isn't what dies: the next
	// two client→server frames are streamed upload units.
	proxy.armAfter(2)
	n, err := client.UploadAllContext(ctx)
	if err != nil {
		t.Fatalf("streaming upload did not survive the kill: %v", err)
	}
	if present, tot := client.CacheState(); present != tot {
		t.Fatalf("resume incomplete: %d/%d", present, tot)
	}
	if rc := client.Metrics().Counter("reconnects_total").Value(); rc < 1 {
		t.Errorf("reconnects_total = %d, want >= 1", rc)
	}

	if n == 0 {
		t.Error("client acked no units around the kill")
	}
	// Exactly-once delivery: the edge priced every plan layer once. A
	// lost-resend bug undercounts; a blind restart (or a resend racing an
	// old handler without server-side dedup) double-counts.
	if got, want := servers[0].Metrics().Counter("upload_bytes_total").Value(), planBytes(t, client); got != want {
		t.Errorf("edge priced %d upload bytes across kill+resume, want exactly %d", got, want)
	}

	// And the session is healthy: queries offload through the (now
	// transparent) proxy.
	if _, err := client.QueryContext(ctx); err != nil {
		t.Fatal(err)
	}
}
