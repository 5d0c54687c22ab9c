package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/storage"
	"anydb/internal/stream"
)

// Frame kinds. A frame is `u32 length | u8 kind | body`; length covers
// kind+body.
const (
	fkMessages uint8 = 1 // i32 dst | u16 count | count × (u8 msgType | body)
	fkControl  uint8 = 2 // self-describing gob blob
)

// maxFrame bounds a frame read so a corrupt length prefix cannot ask
// for an absurd allocation.
const maxFrame = 1 << 28

// drainChunk matches the engine's consumer-side amortization width: one
// RecvBatch, one frame, one syscall for up to this many messages.
const drainChunk = 256

// ErrBye is returned by a Serve control handler to end the read loop
// cleanly (orderly shutdown rather than a failure).
var ErrBye = errors.New("transport: bye")

// ErrPeerDead reports a write toward a peer already marked dead.
var ErrPeerDead = errors.New("transport: peer is dead")

// Peer is one end of a node-to-node connection: a frame writer shared
// by all of this node's drainers (serialized by wmu), and a single-
// goroutine read loop (Serve). Encode and decode state are per-peer, so
// steady-state flushes reuse one buffer and batch schemas resolve from
// a warm cache.
type Peer struct {
	// cmu guards the connection pointer so a rejoin can swap in a fresh
	// conn (SetConn) while drainers and the read loop capture it.
	cmu  sync.Mutex
	conn net.Conn

	wmu sync.Mutex
	enc encoder
	// dead, guarded by wmu so it serializes with encodes, marks the far
	// end as failed: no further bytes (and crucially no further client
	// tokens) leave toward it. Outbound messages divert to OnDead.
	dead bool

	// OnDead, when set, consumes each message that would have been
	// written to a dead peer (ownership transfers: the callback must
	// free what it takes, typically after synthesizing failure acks).
	// nil drops-and-frees. Install before MarkDead can run.
	OnDead func(m any)

	// readTimeout, when positive, bounds the silence readFrame tolerates
	// — the heartbeat watchdog (peers Ping within this window).
	readTimeout time.Duration

	// Read-loop state (single goroutine, no locking).
	dec  *decoder
	body []byte

	wg sync.WaitGroup
}

// NewPeer wraps an established connection. tok is this node's token
// table (nil on nodes that never issue client tokens).
func NewPeer(conn net.Conn, tok *TokenTable) *Peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		// The event plane is latency-bound: frames are already batched
		// (one per outbox drain), so Nagle only adds delay.
		tc.SetNoDelay(true)
	}
	return &Peer{conn: conn, enc: encoder{tok: tok}, dec: newDecoder(tok)}
}

// Close tears down the connection; a blocked Serve returns.
func (p *Peer) Close() error { return p.current().Close() }

// current returns the live connection (rejoin may have swapped it).
func (p *Peer) current() net.Conn {
	p.cmu.Lock()
	defer p.cmu.Unlock()
	return p.conn
}

// SetOwner attributes future client tokens issued on this connection to
// a server index, so a dead-owner sweep can find them. Call before any
// message traffic.
func (p *Peer) SetOwner(server int) {
	p.wmu.Lock()
	p.enc.owner = server
	p.wmu.Unlock()
}

// SetReadTimeout arms the silence watchdog: if no frame (heartbeats
// included) arrives within d, the read loop fails. Zero disables.
func (p *Peer) SetReadTimeout(d time.Duration) { p.readTimeout = d }

// MarkDead declares the far end failed: the connection closes, and no
// further messages — or client tokens — leave toward it. Taking wmu
// serializes the flip with in-flight encodes, so once MarkDead returns,
// the token table's view of this owner is final (FailOwner may sweep).
func (p *Peer) MarkDead() {
	p.wmu.Lock()
	if !p.dead {
		p.dead = true
		p.current().Close()
	}
	p.wmu.Unlock()
}

// SetConn installs a fresh connection after a rejoin handshake and
// clears the dead mark. The caller must have completed the handshake on
// conn and guaranteed no Serve loop is still reading the old one.
func (p *Peer) SetConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.wmu.Lock()
	p.cmu.Lock()
	p.conn = conn
	p.cmu.Unlock()
	p.dead = false
	p.wmu.Unlock()
}

// Abort severs the connection without marking the peer dead — the
// fault-injection hook for reconnect tests (simulates a network drop
// rather than a process death).
func (p *Peer) Abort() { p.current().Close() }

// drop consumes messages bound for a dead peer: the OnDead callback
// takes ownership (synthesizing failure acks), or they are freed.
func (p *Peer) drop(msgs []any) {
	for _, m := range msgs {
		if p.OnDead != nil {
			p.OnDead(m)
		} else {
			freeLocal(m)
		}
	}
}

// frameStart resets the write buffer with a length placeholder. wmu
// must be held through frameWrite.
func (p *Peer) frameStart(kind uint8) {
	p.enc.w.reset()
	p.enc.w.u32(0)
	p.enc.w.u8(kind)
}

func (p *Peer) frameWrite() error {
	b := p.enc.w.b
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := p.current().Write(b)
	return err
}

// WriteMessages encodes one batch of events/data messages destined for
// dst into a single frame and writes it. Ownership of the local copies
// transfers here: after a successful encode they are freed (pools stay
// balanced on the sending process) whether or not the connection
// survived the write — the wire replica, delivered or lost, is the only
// live one. An encode error (a payload that cannot legally cross the
// wire) aborts the frame before any bytes are written.
func (p *Peer) WriteMessages(dst core.ACID, msgs []any) error {
	if len(msgs) > 0xffff {
		return fmt.Errorf("transport: frame of %d messages exceeds the count field", len(msgs))
	}
	p.wmu.Lock()
	if p.dead {
		p.wmu.Unlock()
		p.drop(msgs)
		return ErrPeerDead
	}
	p.frameStart(fkMessages)
	p.enc.w.i32(int32(dst))
	p.enc.w.u16(uint16(len(msgs)))
	var encErr error
	for _, m := range msgs {
		if encErr = p.enc.encodeMsg(m); encErr != nil {
			break
		}
	}
	var err error
	if encErr != nil {
		err = encErr
	} else {
		err = p.frameWrite()
	}
	p.wmu.Unlock()
	if encErr == nil {
		for _, m := range msgs {
			freeLocal(m)
		}
	}
	return err
}

// ForwardClient relays a completion event that surfaced at this node's
// client callback to the peer (dst = core.ClientAC). Unlike
// WriteMessages, the event envelope is NOT freed — the engine recycles
// it when the callback returns — but payload internals are, since the
// wire replica supersedes them.
func (p *Peer) ForwardClient(ev *core.Event) error {
	p.wmu.Lock()
	if p.dead {
		p.wmu.Unlock()
		// The far-end client is gone with its process; release the
		// payload (the envelope stays with the engine, per contract).
		switch pd := ev.Payload.(type) {
		case *oltp.DoneInfo:
			oltp.FreeDoneInfo(pd)
		case *oltp.Ack:
			oltp.FreeAck(pd)
		case *olap.QueryResult:
			for _, b := range pd.Batches {
				storage.FreeBatch(b)
			}
		}
		ev.Payload = nil
		return ErrPeerDead
	}
	p.frameStart(fkMessages)
	p.enc.w.i32(int32(core.ClientAC))
	p.enc.w.u16(1)
	p.enc.w.u8(mtEvent)
	encErr := p.enc.encodeEvent(ev)
	var err error
	if encErr != nil {
		err = encErr
	} else {
		err = p.frameWrite()
	}
	p.wmu.Unlock()
	if encErr == nil {
		switch pd := ev.Payload.(type) {
		case *oltp.DoneInfo:
			oltp.FreeDoneInfo(pd)
		case *oltp.Ack:
			oltp.FreeAck(pd)
		case *olap.QueryResult:
			for _, b := range pd.Batches {
				storage.FreeBatch(b)
			}
		}
		ev.Payload = nil
	}
	return err
}

// WriteControl sends one control message as its own frame.
func (p *Peer) WriteControl(v any) error {
	body, err := encodeControl(v)
	if err != nil {
		return err
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead {
		return ErrPeerDead
	}
	p.frameStart(fkControl)
	p.enc.w.b = append(p.enc.w.b, body...)
	return p.frameWrite()
}

// readFrame blocks for the next frame, reusing the body buffer. With a
// read timeout armed, the whole frame must arrive within the window —
// heartbeat Pings keep a healthy but idle link inside it.
func (p *Peer) readFrame() (uint8, []byte, error) {
	conn := p.current()
	if p.readTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(p.readTimeout))
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, errMalformed
	}
	if cap(p.body) < int(n) {
		p.body = make([]byte, n)
	}
	body := p.body[:n]
	if _, err := io.ReadFull(conn, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// ReadControl blocks for one control frame — the handshake primitive,
// used before Serve starts (message frames are a protocol error here).
func (p *Peer) ReadControl() (any, error) {
	kind, body, err := p.readFrame()
	if err != nil {
		return nil, err
	}
	if kind != fkControl {
		return nil, fmt.Errorf("transport: expected control frame during handshake, got kind %d", kind)
	}
	return decodeControl(body)
}

// Serve runs the read loop until the connection drops (clean: nil) or a
// handler/decode error occurs. onMsg receives each decoded pooled
// message with its destination AC (core.ClientAC means the client
// callback); onCtrl receives control messages and may return ErrBye to
// end the loop cleanly.
func (p *Peer) Serve(onMsg func(dst core.ACID, m any), onCtrl func(v any) error) error {
	for {
		kind, body, err := p.readFrame()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch kind {
		case fkMessages:
			r := rbuf{b: body}
			dst := core.ACID(r.i32())
			n := int(r.u16())
			for i := 0; i < n; i++ {
				m, err := p.dec.decodeMsg(&r)
				if err != nil {
					return err
				}
				onMsg(dst, m)
			}
			if !r.done() {
				return errMalformed
			}
		case fkControl:
			v, err := decodeControl(body)
			if err != nil {
				return err
			}
			if err := onCtrl(v); err != nil {
				if errors.Is(err, ErrBye) {
					return nil
				}
				return err
			}
		default:
			return errMalformed
		}
	}
}

// StartDrainer spawns the router goroutine for one remote AC: it drains
// the engine-registered outbox mailbox in batches and writes each batch
// as one frame. The loop exits when the mailbox closes (Engine.Stop).
// Write errors do not stop the drain — the mailbox must keep emptying
// so local senders and shutdown never block on a dead connection; the
// messages were freed by WriteMessages either way.
func (p *Peer) StartDrainer(dst core.ACID, box *stream.Mailbox[any]) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		buf := make([]any, drainChunk)
		for {
			n, ok := box.RecvBatch(buf)
			if !ok {
				return
			}
			_ = p.WriteMessages(dst, buf[:n])
			clear(buf[:n])
		}
	}()
}

// WaitDrainers blocks until every StartDrainer goroutine exited (their
// mailboxes were closed by Engine.Stop).
func (p *Peer) WaitDrainers() { p.wg.Wait() }

// Barrier acquires and releases the frame-writer lock. Control handlers
// running on the Serve goroutine call it before reading state written
// by local ACs (e.g. snapshotting a partition inside a quiet window):
// an AC's writes happen-before its outgoing messages' flush (mailbox →
// drainer → wmu), so taking wmu here extends that happens-before chain
// to the handler — the protocol guarantees the flush already happened
// (the head only asks after observing the drain).
func (p *Peer) Barrier() {
	p.wmu.Lock()
	defer p.wmu.Unlock()
}
