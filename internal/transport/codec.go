package transport

import (
	"fmt"
	"slices"
	"sync"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// Message type tags inside a messages frame.
const (
	mtEvent uint8 = 1
	mtData  uint8 = 2
)

// Payload type tags of an event body. Only payloads that actually cross
// process boundaries under the distributed deployment are encodable;
// anything else (plan continuations, sequencer batches, telemetry) is a
// routing bug surfaced as an encode error, not silently dropped. Retired
// tags keep their slot, so the remaining tags never change value.
const (
	pNil uint8 = iota
	pSegment
	pAck
	pDoneInfo
	pOpDone
	pQueryResult
	_ // retired: private-cursor scan spec
	pSharedScanSpec
	pJoinSpec
	_ // retired: counting-aggregate spec
	_ // retired: row-collecting spec
	pSinkSpec
)

// Op kind tags inside a segment body.
const (
	opUpdateWarehouseYTD uint8 = iota
	opUpdateDistrictYTD
	opPayCustomer
	opInsertHistory
	opInsertOrder
	opUpdateStock
)

// Client token tags.
const (
	cNil   uint8 = 0
	cToken uint8 = 1
)

// Token is an opaque client-completion token crossing the wire: the
// issuing node (the one holding the real token value, e.g. a *Future)
// replaces it with a table entry and ships the key; every other node
// carries the key around opaquely — segments thread it into acks —
// until it returns to the issuer, which resolves and retires it.
type Token uint64

// AckInfo is the commit-coordination identity of the segment a token
// rode out on: enough to synthesize the ack the dead member will never
// send, so the coordinator's pending count still converges and the
// waiting future resolves with a typed error instead of hanging.
type AckInfo struct {
	Coord core.ACID
	ID    core.TxnID
	Total int
	Home  int
}

// tokEntry is one outstanding token: the client value, the server the
// frame went to, and (for segment-carried tokens) the ack identity.
type tokEntry struct {
	v      any
	owner  int
	ack    AckInfo
	hasAck bool
}

// FailedToken is one entry reclaimed by FailOwner.
type FailedToken struct {
	Value  any
	Ack    AckInfo
	HasAck bool
}

// TokenTable is the issuer-side token registry. One per node; only the
// node that owns client tokens (the head, where submissions originate)
// resolves entries — everyone else passes Tokens through.
type TokenTable struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]tokEntry
}

// NewTokenTable returns an empty table.
func NewTokenTable() *TokenTable {
	return &TokenTable{m: make(map[uint64]tokEntry)}
}

// Put registers v, attributed to the destination server, and returns
// its wire key. hasAck marks tokens riding a segment, whose loss is
// repaired by a synthetic ack.
func (t *TokenTable) Put(v any, owner int, ack AckInfo, hasAck bool) uint64 {
	t.mu.Lock()
	t.next++
	k := t.next
	t.m[k] = tokEntry{v: v, owner: owner, ack: ack, hasAck: hasAck}
	t.mu.Unlock()
	return k
}

// Take resolves and retires a key. Unknown keys (issued by someone
// else, or already retired) report false.
func (t *TokenTable) Take(k uint64) (any, bool) {
	t.mu.Lock()
	e, ok := t.m[k]
	if ok {
		delete(t.m, k)
	}
	t.mu.Unlock()
	return e.v, ok
}

// FailOwner retires every token attributed to a dead server and returns
// them. Callers must have stopped token issuance toward that server
// first (Peer.MarkDead serializes with encodes), so the snapshot is
// complete: a returned key can never race a late Take — the bytes that
// would carry it back only existed on the dead member.
func (t *TokenTable) FailOwner(owner int) []FailedToken {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []FailedToken
	for k, e := range t.m {
		if e.owner == owner {
			out = append(out, FailedToken{Value: e.v, Ack: e.ack, HasAck: e.hasAck})
			delete(t.m, k)
		}
	}
	return out
}

// Len returns the number of outstanding tokens (leak check).
func (t *TokenTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// encoder is one connection's encode state: a reusable append buffer
// and the node's token table (nil on nodes that never issue tokens).
// Encoding is single-writer per connection (the peer's write mutex).
// owner is the server index of the connection's far end; curTxn and
// curAck thread the coordination identity of the event/segment being
// encoded down to the token issued for its client, so a dead-owner
// sweep can synthesize the lost ack.
type encoder struct {
	w     wbuf
	tok   *TokenTable
	owner int

	curTxn   core.TxnID
	curAck   AckInfo
	ackValid bool
}

// decoder is one connection's decode state: the schema cache (batches
// re-reference schemas by their wire encoding, so steady-state decode
// resolves them with one map hit) and the node's token table for
// resolving returning client tokens.
type decoder struct {
	tok     *TokenTable
	schemas map[string]*storage.Schema
}

func newDecoder(tok *TokenTable) *decoder {
	return &decoder{tok: tok, schemas: make(map[string]*storage.Schema)}
}

// encodeMsg appends one event or data message to the frame body.
func (e *encoder) encodeMsg(m any) error {
	switch v := m.(type) {
	case *core.Event:
		e.w.u8(mtEvent)
		return e.encodeEvent(v)
	case *core.DataMsg:
		e.w.u8(mtData)
		e.encodeData(v)
		return nil
	default:
		return fmt.Errorf("transport: message %T cannot cross the wire", m)
	}
}

func (e *encoder) encodeEvent(ev *core.Event) error {
	e.curTxn, e.ackValid = ev.Txn, false
	e.w.u8(uint8(ev.Kind))
	e.w.u64(uint64(ev.Txn))
	e.w.u64(uint64(ev.Query))
	e.w.u64(ev.Seq)
	e.w.bool(ev.NeedClosed)
	e.w.varint(len(ev.Need))
	for _, s := range ev.Need {
		e.w.u64(uint64(s))
	}
	e.w.i64(ev.Size)
	if err := e.encodeClient(ev.Client); err != nil {
		return err
	}
	return e.encodePayload(ev.Payload)
}

func (e *encoder) encodeClient(c any) error {
	switch v := c.(type) {
	case nil:
		e.w.u8(cNil)
	case Token:
		e.w.u8(cToken)
		e.w.u64(uint64(v))
	default:
		if e.tok == nil {
			return fmt.Errorf("transport: cannot issue token for client %T on a non-issuing node", c)
		}
		e.w.u8(cToken)
		e.w.u64(e.tok.Put(v, e.owner, e.curAck, e.ackValid))
	}
	return nil
}

func (d *decoder) decodeClient(r *rbuf) any {
	switch r.u8() {
	case cNil:
		return nil
	case cToken:
		k := r.u64()
		if d.tok != nil {
			if v, ok := d.tok.Take(k); ok {
				return v
			}
		}
		return Token(k)
	default:
		r.fail()
		return nil
	}
}

func (e *encoder) encodePayload(p any) error {
	switch v := p.(type) {
	case nil:
		e.w.u8(pNil)
	case *oltp.Segment:
		e.w.u8(pSegment)
		return e.encodeSegment(v)
	case *oltp.Ack:
		e.w.u8(pAck)
		e.w.varint(v.Total)
		e.w.varint(v.Home)
		return e.encodeClient(v.Client)
	case *oltp.DoneInfo:
		if v.Err != nil {
			// Failure DoneInfos are head-local by construction (the
			// dispatchers that produce them live there); an attempt to
			// ship one is a routing bug, not a field to silently drop.
			return fmt.Errorf("transport: DoneInfo with error %q cannot cross the wire", v.Err)
		}
		e.w.u8(pDoneInfo)
		e.w.bool(v.Committed)
		e.w.varint(v.Home)
		return e.encodeClient(v.Client)
	case *olap.OpDone:
		e.w.u8(pOpDone)
		e.w.u64(uint64(v.Query))
		e.w.str(v.Label)
	case *olap.QueryResult:
		e.w.u8(pQueryResult)
		e.encodeQueryResult(v)
	case *olap.SharedScanSpec:
		e.w.u8(pSharedScanSpec)
		e.encodeScanSpec(v)
	case *olap.JoinSpec:
		e.w.u8(pJoinSpec)
		e.w.u64(uint64(v.Query))
		e.w.u64(uint64(v.Build))
		e.encodeStrs(v.BuildKey)
		e.w.u64(uint64(v.Probe))
		e.encodeStrs(v.ProbeKey)
		e.encodeStrs(v.BuildOut)
		e.encodeStrs(v.ProbeOut)
		e.w.u64(uint64(v.Out))
		e.w.i32(int32(v.To))
		e.w.varint(v.Producers)
		e.w.i32(int32(v.Notify))
		e.w.str(v.Label)
		e.w.varint(len(v.ProbeScans))
		for _, in := range v.ProbeScans {
			e.w.i32(int32(in.At))
			e.encodeScanSpec(in.Spec)
		}
	case *olap.SinkSpec:
		e.w.u8(pSinkSpec)
		e.w.u64(uint64(v.Query))
		e.w.u64(uint64(v.In))
		e.encodeStrs(v.GroupBy)
		e.encodeAggs(v.Aggs)
		e.w.bool(v.MergePartials)
		e.encodeStrs(v.Cols)
		e.encodeStrs(v.OutCols)
		e.w.varint(len(v.OutKinds))
		for _, k := range v.OutKinds {
			e.w.u8(uint8(k))
		}
		e.w.varint(len(v.OutSrc))
		for _, s := range v.OutSrc {
			e.w.varint(s)
		}
		e.w.varint(len(v.OrderBy))
		for _, o := range v.OrderBy {
			e.w.varint(o.Col)
			e.w.bool(o.Desc)
		}
		e.w.i64(int64(v.Limit))
		e.w.i32(int32(v.Notify))
	default:
		return fmt.Errorf("transport: payload %T cannot cross the wire", p)
	}
	return nil
}

func (e *encoder) encodeScanSpec(v *olap.SharedScanSpec) {
	e.w.u64(uint64(v.Query))
	e.w.i32(int32(v.Table))
	e.w.varint(v.Part)
	e.encodePreds(v.Filters)
	e.encodeStrs(v.Cols)
	e.encodeStrs(v.GroupBy)
	e.encodeAggs(v.Aggs)
	e.w.bool(v.DictGroups)
	e.w.u64(uint64(v.Out))
	e.w.i32(int32(v.To))
	e.w.varint(v.Producers)
	e.w.bool(v.Keys != nil)
	if f := v.Keys; f != nil {
		e.encodeStrs(f.Cols)
		for j := range f.Cols {
			e.w.i64(f.Lo[j])
			e.w.u64(f.Span[j])
		}
		e.w.varint(len(f.Bits))
		for _, w := range f.Bits {
			e.w.u64(w)
		}
	}
}

func (d *decoder) decodeScanSpec(r *rbuf) *olap.SharedScanSpec {
	s := &olap.SharedScanSpec{
		Query: core.QueryID(r.u64()), Table: storage.TableID(r.i32()), Part: r.varint(),
		Filters: d.decodePreds(r), Cols: d.decodeStrs(r),
		GroupBy: d.decodeStrs(r), Aggs: d.decodeAggs(r), DictGroups: r.bool(),
		Out: core.StreamID(r.u64()), To: core.ACID(r.i32()),
		Producers: r.varint(),
	}
	if !r.bool() {
		return s
	}
	f := &olap.KeyFilter{Cols: d.decodeStrs(r)}
	s.Keys = f
	if len(f.Cols) == 0 || len(f.Cols) > olap.MaxJoinKeys {
		r.fail()
		return s
	}
	f.Lo, f.Span = make([]int64, len(f.Cols)), make([]uint64, len(f.Cols))
	for j := range f.Cols {
		f.Lo[j], f.Span[j] = r.i64(), r.u64()
	}
	// The box must be well formed, and the bitmap exactly as long as the
	// box has cells (none past the cap) and within the frame: 8 bytes a
	// word.
	words, ok := olap.BoxWords(f.Lo, f.Span)
	n := r.count()
	if !ok || n != words || n > (len(r.b)-r.off)/8 {
		r.fail()
	}
	if r.err != nil || n == 0 {
		return s
	}
	f.Bits = make([]uint64, n)
	for i := range f.Bits {
		f.Bits[i] = r.u64()
	}
	return s
}

func (e *encoder) encodeSegment(s *oltp.Segment) error {
	e.w.i32(int32(s.Coord))
	e.w.varint(s.Total)
	home := 0
	if len(s.Ops) > 0 {
		home = s.Ops[0].Warehouse()
	}
	e.curAck = AckInfo{Coord: s.Coord, ID: e.curTxn, Total: s.Total, Home: home}
	e.ackValid = true
	err := e.encodeClient(s.Client)
	e.ackValid = false
	if err != nil {
		return err
	}
	e.w.varint(len(s.Ops))
	for _, op := range s.Ops {
		switch o := op.(type) {
		case *oltp.UpdateWarehouseYTD:
			e.w.u8(opUpdateWarehouseYTD)
			e.w.varint(o.W)
			e.w.f64(o.Amount)
		case *oltp.UpdateDistrictYTD:
			e.w.u8(opUpdateDistrictYTD)
			e.w.varint(o.W)
			e.w.varint(o.D)
			e.w.f64(o.Amount)
		case *oltp.PayCustomer:
			e.w.u8(opPayCustomer)
			e.w.varint(o.W)
			e.w.varint(o.D)
			e.w.varint(o.C)
			e.w.bool(o.ByLast)
			e.w.varint(o.Last)
			e.w.f64(o.Amount)
		case *oltp.InsertHistory:
			e.w.u8(opInsertHistory)
			e.w.varint(o.W)
			e.w.varint(o.D)
			e.w.varint(o.CW)
			e.w.varint(o.CD)
			e.w.i64(o.CRef)
			e.w.f64(o.Amount)
		case *oltp.InsertOrder:
			e.w.u8(opInsertOrder)
			e.w.varint(o.W)
			e.w.varint(o.D)
			e.w.varint(o.C)
			e.w.i64(o.Year)
			e.encodeLines(o.Lines)
		case *oltp.UpdateStock:
			e.w.u8(opUpdateStock)
			e.w.varint(o.SupplyW)
			e.encodeLines(o.Lines)
		default:
			return fmt.Errorf("transport: op %T cannot cross the wire", op)
		}
	}
	return nil
}

func (e *encoder) encodeLines(lines []tpcc.NewOrderLine) {
	e.w.varint(len(lines))
	for _, l := range lines {
		e.w.varint(l.Item)
		e.w.varint(l.Qty)
		e.w.varint(l.SupplyW)
	}
}

func (d *decoder) decodeLines(r *rbuf) []tpcc.NewOrderLine {
	n := r.count()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]tpcc.NewOrderLine, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, tpcc.NewOrderLine{Item: r.varint(), Qty: r.varint(), SupplyW: r.varint()})
	}
	return out
}

func (e *encoder) encodeStrs(ss []string) {
	e.w.varint(len(ss))
	for _, s := range ss {
		e.w.str(s)
	}
}

func (d *decoder) decodeStrs(r *rbuf) []string {
	n := r.count()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

func (e *encoder) encodePreds(ps []olap.Predicate) {
	e.w.varint(len(ps))
	for _, p := range ps {
		e.w.str(p.Col)
		e.w.u8(uint8(p.Kind))
		e.w.str(p.Str)
		e.w.i64(p.Lo)
		e.w.i64(p.Hi)
	}
}

func (d *decoder) decodePreds(r *rbuf) []olap.Predicate {
	n := r.count()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]olap.Predicate, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		p := olap.Predicate{Col: r.str(), Kind: olap.PredKind(r.u8()), Str: r.str(), Lo: r.i64(), Hi: r.i64()}
		if p.Kind > olap.PredOut {
			r.fail() // a kind this build does not know
		}
		out = append(out, p)
	}
	return out
}

func (e *encoder) encodeAggs(as []olap.AggExpr) {
	e.w.varint(len(as))
	for _, a := range as {
		e.w.u8(uint8(a.Fn))
		e.w.str(a.Col)
	}
}

func (d *decoder) decodeAggs(r *rbuf) []olap.AggExpr {
	n := r.count()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]olap.AggExpr, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, olap.AggExpr{Fn: olap.AggFn(r.u8()), Col: r.str()})
	}
	return out
}

func (e *encoder) encodeQueryResult(v *olap.QueryResult) {
	e.w.u64(uint64(v.Query))
	e.w.i64(v.Rows)
	e.encodeStrs(v.Cols)
	e.w.bool(v.Truncated)
	e.w.varint(len(v.Batches))
	for _, b := range v.Batches {
		e.encodeBatch(b)
	}
}

// encodeData writes one data message: header plus, when present, its
// columnar batch (schema inline; the decode side caches resolution).
func (e *encoder) encodeData(m *core.DataMsg) {
	e.w.u64(uint64(m.Stream))
	e.w.u64(uint64(m.Query))
	e.w.bool(m.Last)
	e.w.bool(m.Prehashed)
	e.w.varint(m.Producers)
	if m.Batch == nil {
		e.w.bool(false)
		return
	}
	e.w.bool(true)
	e.encodeBatch(m.Batch)
}

func (e *encoder) encodeBatch(b *storage.Batch) {
	e.w.str(b.Schema.Name)
	e.w.varint(len(b.Schema.Cols))
	for _, c := range b.Schema.Cols {
		e.w.u8(uint8(c.Kind))
		e.w.str(c.Name)
	}
	n := b.Len()
	e.w.varint(n)
	for c := range b.Cols {
		cv := &b.Cols[c]
		switch cv.Kind {
		case storage.KInt:
			for i := 0; i < n; i++ {
				e.w.i64(cv.Ints[i])
			}
		case storage.KFloat:
			for i := 0; i < n; i++ {
				e.w.f64(cv.Floats[i])
			}
		default:
			for i := 0; i < n; i++ {
				e.w.str(cv.Strs[i])
			}
		}
	}
}

// decodeMsg reads one message, returning a pooled *core.Event or
// *core.DataMsg replica of the sender's local copy.
func (d *decoder) decodeMsg(r *rbuf) (any, error) {
	switch r.u8() {
	case mtEvent:
		return d.decodeEvent(r)
	case mtData:
		return d.decodeData(r)
	default:
		r.fail()
		return nil, r.err
	}
}

func (d *decoder) decodeEvent(r *rbuf) (*core.Event, error) {
	ev := core.GetEvent()
	ev.Kind = core.EventKind(r.u8())
	ev.Txn = core.TxnID(r.u64())
	ev.Query = core.QueryID(r.u64())
	ev.Seq = r.u64()
	ev.NeedClosed = r.bool()
	if n := r.count(); n > 0 && r.err == nil {
		ev.Need = make([]core.StreamID, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ev.Need = append(ev.Need, core.StreamID(r.u64()))
		}
	}
	ev.Size = r.i64()
	ev.Client = d.decodeClient(r)
	ev.Payload = d.decodePayload(r)
	if r.err != nil {
		d.freeBadEvent(ev)
		return nil, r.err
	}
	return ev, nil
}

// freeBadEvent releases the partially decoded event of a malformed
// frame, including any pooled payload already materialized.
func (d *decoder) freeBadEvent(ev *core.Event) {
	switch p := ev.Payload.(type) {
	case *oltp.Segment:
		oltp.FreeSegment(p)
	case *oltp.Ack:
		oltp.FreeAck(p)
	case *oltp.DoneInfo:
		oltp.FreeDoneInfo(p)
	case *olap.QueryResult:
		for _, b := range p.Batches {
			storage.FreeBatch(b)
		}
	}
	core.FreeEvent(ev)
}

func (d *decoder) decodePayload(r *rbuf) any {
	switch r.u8() {
	case pNil:
		return nil
	case pSegment:
		// Guard the typed-nil: a malformed segment must yield an untyped
		// nil payload or freeBadEvent would free a nil *Segment.
		if s := d.decodeSegment(r); s != nil {
			return s
		}
		return nil
	case pAck:
		a := oltp.GetAck()
		a.Total = r.varint()
		a.Home = r.varint()
		a.Client = d.decodeClient(r)
		if r.err != nil {
			oltp.FreeAck(a)
			return nil
		}
		return a
	case pDoneInfo:
		di := oltp.GetDoneInfo()
		di.Committed = r.bool()
		di.Home = r.varint()
		di.Client = d.decodeClient(r)
		if r.err != nil {
			oltp.FreeDoneInfo(di)
			return nil
		}
		return di
	case pOpDone:
		return &olap.OpDone{Query: core.QueryID(r.u64()), Label: r.str()}
	case pQueryResult:
		if q := d.decodeQueryResult(r); q != nil {
			return q
		}
		return nil
	case pSharedScanSpec:
		return d.decodeScanSpec(r)
	case pJoinSpec:
		j := &olap.JoinSpec{
			Query: core.QueryID(r.u64()),
			Build: core.StreamID(r.u64()), BuildKey: d.decodeStrs(r),
			Probe: core.StreamID(r.u64()), ProbeKey: d.decodeStrs(r),
			BuildOut: d.decodeStrs(r), ProbeOut: d.decodeStrs(r),
			Out: core.StreamID(r.u64()), To: core.ACID(r.i32()),
			Producers: r.varint(), Notify: core.ACID(r.i32()), Label: r.str(),
		}
		if n := r.count(); n > 0 && r.err == nil {
			j.ProbeScans = make([]olap.ScanInstall, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				at := core.ACID(r.i32())
				j.ProbeScans = append(j.ProbeScans, olap.ScanInstall{At: at, Spec: d.decodeScanSpec(r)})
			}
		}
		return j
	case pSinkSpec:
		s := &olap.SinkSpec{
			Query: core.QueryID(r.u64()), In: core.StreamID(r.u64()),
			GroupBy: d.decodeStrs(r), Aggs: d.decodeAggs(r),
			MergePartials: r.bool(), Cols: d.decodeStrs(r),
			OutCols: d.decodeStrs(r),
		}
		if n := r.count(); n > 0 && r.err == nil {
			s.OutKinds = make([]storage.Kind, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				s.OutKinds = append(s.OutKinds, storage.Kind(r.u8()))
			}
		}
		if n := r.count(); n > 0 && r.err == nil {
			s.OutSrc = make([]int, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				s.OutSrc = append(s.OutSrc, r.varint())
			}
		}
		if n := r.count(); n > 0 && r.err == nil {
			s.OrderBy = make([]olap.OrderKey, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				s.OrderBy = append(s.OrderBy, olap.OrderKey{Col: r.varint(), Desc: r.bool()})
			}
		}
		s.Limit = int(r.i64())
		s.Notify = core.ACID(r.i32())
		return s
	default:
		r.fail()
		return nil
	}
}

func (d *decoder) decodeSegment(r *rbuf) *oltp.Segment {
	s := oltp.GetSegment()
	s.Coord = core.ACID(r.i32())
	s.Total = r.varint()
	s.Client = d.decodeClient(r)
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		var op oltp.Op
		switch r.u8() {
		case opUpdateWarehouseYTD:
			op = &oltp.UpdateWarehouseYTD{W: r.varint(), Amount: r.f64()}
		case opUpdateDistrictYTD:
			op = &oltp.UpdateDistrictYTD{W: r.varint(), D: r.varint(), Amount: r.f64()}
		case opPayCustomer:
			op = &oltp.PayCustomer{
				W: r.varint(), D: r.varint(), C: r.varint(),
				ByLast: r.bool(), Last: r.varint(), Amount: r.f64(),
			}
		case opInsertHistory:
			op = &oltp.InsertHistory{
				W: r.varint(), D: r.varint(), CW: r.varint(), CD: r.varint(),
				CRef: r.i64(), Amount: r.f64(),
			}
		case opInsertOrder:
			op = &oltp.InsertOrder{
				W: r.varint(), D: r.varint(), C: r.varint(),
				Year: r.i64(), Lines: d.decodeLines(r),
			}
		case opUpdateStock:
			op = &oltp.UpdateStock{SupplyW: r.varint(), Lines: d.decodeLines(r)}
		default:
			r.fail()
		}
		if r.err == nil {
			s.Ops = append(s.Ops, op)
		}
	}
	if r.err != nil {
		oltp.FreeSegment(s)
		return nil
	}
	return s
}

func (d *decoder) decodeQueryResult(r *rbuf) *olap.QueryResult {
	q := &olap.QueryResult{
		Query: core.QueryID(r.u64()), Rows: r.i64(),
		Cols: d.decodeStrs(r), Truncated: r.bool(),
	}
	nb := r.count()
	for i := 0; i < nb && r.err == nil; i++ {
		if b := d.decodeBatch(r); b != nil {
			q.Batches = append(q.Batches, b)
		}
	}
	if r.err != nil {
		for _, b := range q.Batches {
			storage.FreeBatch(b)
		}
		return nil
	}
	return q
}

func (d *decoder) decodeData(r *rbuf) (*core.DataMsg, error) {
	m := core.GetDataMsg()
	m.Stream = core.StreamID(r.u64())
	m.Query = core.QueryID(r.u64())
	m.Last = r.bool()
	m.Prehashed = r.bool()
	m.Producers = r.varint()
	if r.bool() {
		m.Batch = d.decodeBatch(r)
	}
	if r.err != nil {
		if m.Batch != nil {
			storage.FreeBatch(m.Batch)
		}
		core.FreeDataMsg(m)
		return nil, r.err
	}
	return m, nil
}

// decodeBatch reads one batch into a pooled replica, resolving the
// inline schema against the per-connection cache (keyed by its raw wire
// bytes, so a name collision with a different shape never aliases).
func (d *decoder) decodeBatch(r *rbuf) *storage.Batch {
	schemaStart := r.off
	name := r.str()
	ncols := r.count()
	if r.err != nil || ncols > 4096 {
		r.fail()
		return nil
	}
	cols := make([]storage.Column, 0, ncols)
	for i := 0; i < ncols && r.err == nil; i++ {
		k := storage.Kind(r.u8())
		if k != storage.KInt && k != storage.KFloat && k != storage.KStr {
			r.fail()
			break
		}
		cols = append(cols, storage.Column{Kind: k, Name: r.str()})
	}
	if r.err != nil {
		return nil
	}
	key := string(r.b[schemaStart:r.off])
	schema := d.schemas[key]
	if schema == nil {
		// Cache-miss only: NewSchema panics on duplicate column names, so
		// a corrupt frame must be rejected before constructing one.
		for i := range cols {
			for j := i + 1; j < len(cols); j++ {
				if cols[i].Name == cols[j].Name {
					r.fail()
					return nil
				}
			}
		}
		schema = storage.NewSchema(name, cols...)
		d.schemas[key] = schema
	}
	n := r.count()
	// Every cell takes at least 4 bytes of the frame (a string's length
	// prefix; ints and floats take 8), so a row count the rest of the
	// frame cannot hold is malformed — rejected before any column grows.
	if r.err != nil || n*ncols*4 > len(r.b)-r.off {
		r.fail()
		return nil
	}
	// Column-major on the wire: each column decodes straight into its
	// vector of the pooled batch. Past a failed read the fixed-width
	// loops only fill capacity already grown with zeros.
	b := storage.GetBatch(schema)
	for c := range b.Cols {
		v := &b.Cols[c]
		switch v.Kind {
		case storage.KInt:
			v.Ints = slices.Grow(v.Ints, n)
			for i := 0; i < n; i++ {
				v.Ints = append(v.Ints, r.i64())
			}
		case storage.KFloat:
			v.Floats = slices.Grow(v.Floats, n)
			for i := 0; i < n; i++ {
				v.Floats = append(v.Floats, r.f64())
			}
		default:
			v.Strs = slices.Grow(v.Strs, n)
			for i := 0; i < n && r.err == nil; i++ {
				v.Strs = append(v.Strs, r.str())
			}
		}
	}
	if r.err != nil {
		storage.FreeBatch(b)
		return nil
	}
	b.Extend(n)
	return b
}

// FreeLocal releases a message that will never be written — the peer
// died and WriteMessages diverted it to Peer.OnDead. Ownership passed
// to the callback; once it has extracted what it needs it must balance
// the pools exactly as an outbox flush would.
func FreeLocal(m any) { freeLocal(m) }

// freeLocal releases the encode-side copy of a message once its frame
// is written: the wire replica is now the live one, and freeing here is
// what keeps the sending process's pools balanced (an outbox flush has
// the same ownership semantics as local consumption).
func freeLocal(m any) {
	switch v := m.(type) {
	case *core.Event:
		switch p := v.Payload.(type) {
		case *oltp.Segment:
			oltp.FreeSegment(p)
		case *oltp.Ack:
			oltp.FreeAck(p)
		case *oltp.DoneInfo:
			oltp.FreeDoneInfo(p)
		case *olap.QueryResult:
			for _, b := range p.Batches {
				storage.FreeBatch(b)
			}
		}
		core.FreeEvent(v)
	case *core.DataMsg:
		if v.Batch != nil {
			storage.FreeBatch(v.Batch)
		}
		core.FreeDataMsg(v)
	}
}
