package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"anydb/internal/core"
	"anydb/internal/olap"
	"anydb/internal/oltp"
	"anydb/internal/storage"
	"anydb/internal/tpcc"
)

// sampleBatch builds a three-kind batch exercising every column codec.
func sampleBatch() *storage.Batch {
	schema := storage.NewSchema("sample",
		storage.Column{Kind: storage.KInt, Name: "id"},
		storage.Column{Kind: storage.KStr, Name: "name"},
		storage.Column{Kind: storage.KFloat, Name: "amount"},
	)
	b := storage.NewBatch(schema)
	b.AppendValues(storage.Int(1), storage.Str("alpha"), storage.Float(1.5))
	b.AppendValues(storage.Int(-7), storage.Str(""), storage.Float(-0.25))
	b.AppendValues(storage.Int(1<<40), storage.Str("βeta"), storage.Float(0))
	return b
}

// sampleSegment covers every op kind the segment codec knows.
func sampleSegment() *oltp.Segment {
	lines := []tpcc.NewOrderLine{{Item: 3, Qty: 2, SupplyW: 1}, {Item: 9, Qty: 1, SupplyW: 0}}
	return &oltp.Segment{
		Coord: 5, Total: 3, Client: Token(42),
		Ops: []oltp.Op{
			&oltp.UpdateWarehouseYTD{W: 1, Amount: 12.5},
			&oltp.UpdateDistrictYTD{W: 1, D: 2, Amount: 12.5},
			&oltp.PayCustomer{W: 1, D: 2, C: 3, ByLast: true, Last: 17, Amount: 12.5},
			&oltp.InsertHistory{W: 1, D: 2, CW: 0, CD: 1, CRef: 99, Amount: 12.5},
			&oltp.InsertOrder{W: 1, D: 2, C: 3, Year: 2021, Lines: lines},
			&oltp.UpdateStock{SupplyW: 1, Lines: lines},
		},
	}
}

// sampleEvents yields one event per encodable payload type.
func sampleEvents() []*core.Event {
	mk := func(kind core.EventKind, payload any) *core.Event {
		return &core.Event{Kind: kind, Txn: 7, Query: 9, Seq: 11, Size: 128, Payload: payload}
	}
	return []*core.Event{
		mk(core.EvSegment, sampleSegment()),
		mk(core.EvAck, &oltp.Ack{Total: 3, Home: 1, Client: Token(8)}),
		mk(core.EvTxnDone, &oltp.DoneInfo{Committed: true, Home: 2, Client: Token(8)}),
		mk(core.EvOpDone, &olap.OpDone{Query: 4, Label: "scan:orders"}),
		mk(core.EvOpDone, &olap.QueryResult{
			Query: 4, Rows: 3, Cols: []string{"id", "name", "amount"}, Truncated: true,
			Batches: []*storage.Batch{sampleBatch()},
		}),
		mk(core.EvInstallOp, &olap.SharedScanSpec{
			Query: 4, Table: tpcc.TCustomerID, Part: 1,
			Filters: []olap.Predicate{
				{Col: "c_state", Kind: olap.PredPrefix, Str: "A"},
				{Col: "c_last", Kind: olap.PredEqStr, Str: "BARBAR"},
				{Col: "c_d_id", Kind: olap.PredOut, Lo: -3, Hi: -3},
				{Col: "c_id", Kind: olap.PredIn, Lo: math.MinInt64, Hi: 400},
			},
			Cols: []string{"c_w_id", "c_id"}, Out: 30, To: 5, Producers: 4,
		}),
		mk(core.EvInstallOp, &olap.SharedScanSpec{
			Query: 4, Table: tpcc.TOrdersID, Part: 2,
			Filters:    []olap.Predicate{{Col: "year", Kind: olap.PredIn, Lo: 2021, Hi: math.MaxInt64}},
			GroupBy:    []string{"d"},
			Aggs:       []olap.AggExpr{{Fn: olap.AggCount}, {Fn: olap.AggAvg, Col: "amount"}},
			DictGroups: true,
			Out:        31, To: 6, Producers: 4,
		}),
		mk(core.EvInstallOp, &olap.JoinSpec{
			Query: 4, Build: 31, BuildKey: []string{"id"}, Probe: 32, ProbeKey: []string{"oid"},
			BuildOut: []string{"name", "id"}, ProbeOut: []string{"amount"},
			Out: 33, To: 6, Producers: 2, Notify: 1, Label: "join1",
		}),
		mk(core.EvInstallOp, &olap.JoinSpec{
			Query: 4, Build: 33, BuildKey: []string{"a", "b", "c"}, Probe: 34, ProbeKey: []string{"x", "y", "z"},
			ProbeOut: []string{"x"},
			Out:      35, To: 7, Producers: 1, Notify: core.NoAC, Label: "join2",
		}),
		// A join holding its probe scans, and one of them once the join
		// has attached its build-key filter.
		mk(core.EvInstallOp, &olap.JoinSpec{
			Query: 4, Build: 31, BuildKey: []string{"c_w_id", "c_id"}, Probe: 32, ProbeKey: []string{"o_w_id", "o_c_id"},
			ProbeOut: []string{"o_w_id"},
			Out:      33, To: 6, Producers: 1, Notify: core.NoAC, Label: "join1",
			ProbeScans: []olap.ScanInstall{
				{At: 2, Spec: &olap.SharedScanSpec{
					Query: 4, Table: tpcc.TOrdersID, Part: 0,
					Filters: []olap.Predicate{{Col: "o_entry_d", Kind: olap.PredIn, Lo: 2007, Hi: math.MaxInt64}},
					Cols:    []string{"o_w_id", "o_c_id"}, Out: 32, To: 6, Producers: 2,
				}},
				{At: 3, Spec: &olap.SharedScanSpec{
					Query: 4, Table: tpcc.TOrdersID, Part: 1,
					Cols: []string{"o_w_id", "o_c_id"}, Out: 32, To: 6, Producers: 2,
				}},
			},
		}),
		keyedScan(&olap.KeyFilter{Cols: []string{"o_w_id", "o_c_id"}, Lo: []int64{-1, 7}, Span: []uint64{3, 63},
			Bits: []uint64{0x8000000000000001, 0, 42, 1 << 40}}),
		// A filter whose box is past the cap is its ranges alone.
		keyedScan(&olap.KeyFilter{Cols: []string{"o_w_id", "o_d_id", "o_c_id"},
			Lo: []int64{math.MinInt64, 0, 1}, Span: []uint64{math.MaxUint64, 9, 2999}}),
		mk(core.EvInstallOp, &olap.SinkSpec{
			Query: 4, In: 35, Cols: []string{"c_id", "c_last"}, OutCols: []string{"c_id", "c_last"},
			OutKinds: []storage.Kind{storage.KInt, storage.KStr}, Limit: -1, Notify: core.ClientAC,
		}),
		mk(core.EvInstallOp, &olap.SinkSpec{
			Query: 4, In: 33, GroupBy: []string{"d"},
			Aggs:          []olap.AggExpr{{Fn: olap.AggSum, Col: "amount"}},
			MergePartials: true, Cols: []string{"d", "amount"}, OutCols: []string{"d", "total"},
			OutKinds: []storage.Kind{storage.KStr, storage.KFloat}, OutSrc: []int{0, 1},
			OrderBy: []olap.OrderKey{{Col: 1, Desc: true}}, Limit: 10, Notify: 1,
		}),
	}
}

// keyedScan is a held probe scan's install event once its join has
// attached the key filter f.
func keyedScan(f *olap.KeyFilter) *core.Event {
	return &core.Event{Kind: core.EvInstallOp, Txn: 7, Query: 9, Seq: 11, Size: 128, Payload: &olap.SharedScanSpec{
		Query: 4, Table: tpcc.TOrdersID, Part: 1,
		Cols: []string{"o_w_id", "o_c_id"}, Out: 32, To: 6, Producers: 2, Keys: f,
	}}
}

func sampleDataMsgs() []*core.DataMsg {
	return []*core.DataMsg{
		{Stream: 31, Query: 4, Producers: 2, Batch: sampleBatch()},
		{Stream: 31, Query: 4, Last: true, Prehashed: true, Producers: 2},
	}
}

func encodeOne(t testing.TB, tok *TokenTable, m any) []byte {
	t.Helper()
	e := encoder{tok: tok}
	if err := e.encodeMsg(m); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return append([]byte(nil), e.w.b...)
}

// roundTrip decodes wire bytes, re-encodes the replica, and requires the
// canonical encoding to be a byte-identical fixed point. Byte equality of
// the canonical form is exactly decode(encode(x)) == x for every field
// the codec carries, without tripping over pooled envelopes or schema
// pointer identity.
func roundTrip(t *testing.T, wire []byte) {
	t.Helper()
	d := newDecoder(nil)
	r := rbuf{b: wire}
	m, err := d.decodeMsg(&r)
	if err != nil {
		return // malformed input rejected cleanly — nothing to round-trip
	}
	var e encoder
	if err := e.encodeMsg(m); err != nil {
		t.Fatalf("decoded message failed to re-encode: %v", err)
	}
	canon := append([]byte(nil), e.w.b...)
	freeLocal(m)

	r2 := rbuf{b: canon}
	m2, err := d.decodeMsg(&r2)
	if err != nil {
		t.Fatalf("canonical encoding failed to decode: %v", err)
	}
	if !r2.done() {
		t.Fatalf("canonical decode left %d trailing bytes", len(canon)-r2.off)
	}
	var e2 encoder
	if err := e2.encodeMsg(m2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	freeLocal(m2)
	if !bytes.Equal(canon, e2.w.b) {
		t.Fatalf("encoding is not a fixed point:\n first %x\nsecond %x", canon, e2.w.b)
	}
}

// decodesTo requires the first decode of wire to carry a payload equal,
// field by field, to want. The fixed-point check of roundTrip cannot see
// a field the codec drops on both passes; install specs execute on the
// receiving member, so a dropped field silently changes what runs there.
func decodesTo(t *testing.T, wire []byte, want any) {
	t.Helper()
	r := rbuf{b: wire}
	m, err := newDecoder(nil).decodeMsg(&r)
	if err != nil {
		t.Fatalf("decode %T: %v", want, err)
	}
	if got := m.(*core.Event).Payload; !reflect.DeepEqual(got, want) {
		t.Errorf("decoded payload differs from the original:\n got %+v\nwant %+v", got, want)
	}
	freeLocal(m)
}

// TestCodecRoundTrip pins decode(encode(x)) == x for one message of
// every encodable payload shape, and that no pooled object leaks on the
// way (the decode side materializes pooled replicas, freeLocal must
// retire them all).
func TestCodecRoundTrip(t *testing.T) {
	core.TrackPools(true)
	defer core.TrackPools(false)
	for _, ev := range sampleEvents() {
		wire := encodeOne(t, nil, ev)
		if ev.Kind == core.EvInstallOp {
			decodesTo(t, wire, ev.Payload)
		}
		roundTrip(t, wire)
	}
	for _, m := range sampleDataMsgs() {
		roundTrip(t, encodeOne(t, nil, m))
	}
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Fatalf("codec round trips leaked pooled objects: %s", core.PoolBalanceString())
	}
}

// TestClientTokenRoundTrip pins the token table contract: the issuing
// side replaces an opaque client handle with a table key on encode, and
// resolves the SAME handle back when the key returns — with the entry
// retired so each token resolves exactly once.
func TestClientTokenRoundTrip(t *testing.T) {
	tok := NewTokenTable()
	type future struct{ ch chan struct{} }
	orig := &future{ch: make(chan struct{})}
	ev := &core.Event{Kind: core.EvTxnDone, Payload: &oltp.DoneInfo{Committed: true, Client: orig}}

	wire := encodeOne(t, tok, ev)
	if tok.Len() != 1 {
		t.Fatalf("token table holds %d entries after encode, want 1", tok.Len())
	}
	d := newDecoder(tok)
	r := rbuf{b: wire}
	m, err := d.decodeMsg(&r)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*core.Event).Payload.(*oltp.DoneInfo).Client
	if got != orig {
		t.Fatalf("token resolved to %v, want the original handle", got)
	}
	if tok.Len() != 0 {
		t.Fatalf("token table holds %d entries after resolve, want 0", tok.Len())
	}

	// A non-issuing node (nil table) carries the key through opaquely.
	d2 := newDecoder(nil)
	r2 := rbuf{b: wire}
	m2, err := d2.decodeMsg(&r2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.(*core.Event).Payload.(*oltp.DoneInfo).Client.(Token); !ok {
		t.Fatal("non-issuing decode must surface an opaque Token")
	}
}

// unknownPredKindFrame is a well-framed scan-spec install whose one
// predicate carries a kind no build knows.
func unknownPredKindFrame(t testing.TB) []byte {
	t.Helper()
	return encodeOne(t, nil, &core.Event{Kind: core.EvInstallOp, Query: 4, Payload: &olap.SharedScanSpec{
		Query: 4, Table: tpcc.TCustomerID, Filters: []olap.Predicate{{Col: "c_d_id", Kind: 9}},
		Cols: []string{"c_id"}, Out: 30, To: 5, Producers: 1,
	}})
}

// TestDecodeRejectsUnknownPredicateKind: a predicate kind past the last
// one is malformed input, rejected at the decoder without leaking pooled
// objects, not an install that panics or silently misfilters a member.
func TestDecodeRejectsUnknownPredicateKind(t *testing.T) {
	core.TrackPools(true)
	defer core.TrackPools(false)
	r := rbuf{b: unknownPredKindFrame(t)}
	if m, err := newDecoder(nil).decodeMsg(&r); err == nil {
		freeLocal(m)
		t.Fatal("decoded a scan spec with predicate kind 9")
	}
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Fatalf("rejected decode leaked pooled objects: %s", core.PoolBalanceString())
	}
}

// badKeyFilterFrames are held-scan installs whose key filter no join
// makes: each must fail the decode.
func badKeyFilterFrames(t testing.TB) map[string][]byte {
	t.Helper()
	frame := func(f *olap.KeyFilter) []byte { return encodeOne(t, nil, keyedScan(f)) }
	one := []string{"o_c_id"}
	full := make([]uint64, olap.KeyBoxCap/64)
	truncated := frame(&olap.KeyFilter{Cols: []string{"o_w_id", "o_c_id"}, Lo: []int64{0, 0},
		Span: []uint64{1<<10 - 1, 1<<11 - 1}, Bits: full})
	return map[string][]byte{
		"span past MaxInt64": frame(&olap.KeyFilter{Cols: one, Lo: []int64{math.MaxInt64 - 1}, Span: []uint64{2}, Bits: []uint64{0}}),
		"span of 2^64":       frame(&olap.KeyFilter{Cols: one, Lo: []int64{1}, Span: []uint64{math.MaxUint64}}),
		"bitmap past the cap": frame(&olap.KeyFilter{Cols: []string{"o_w_id", "o_c_id"}, Lo: []int64{0, 0},
			Span: []uint64{1 << 10, 1<<11 - 1}, Bits: make([]uint64, olap.KeyBoxCap/64+32)}),
		"bitmap one word short": frame(&olap.KeyFilter{Cols: one, Lo: []int64{0}, Span: []uint64{64}, Bits: []uint64{1}}),
		"bitmap one word long":  frame(&olap.KeyFilter{Cols: one, Lo: []int64{0}, Span: []uint64{63}, Bits: []uint64{1, 0}}),
		"no bitmap in the cap":  frame(&olap.KeyFilter{Cols: one, Lo: []int64{0}, Span: []uint64{63}}),
		"no key column":         frame(&olap.KeyFilter{}),
		"four key columns": frame(&olap.KeyFilter{Cols: []string{"a", "b", "c", "d"}, Lo: make([]int64, 4),
			Span: make([]uint64, 4), Bits: []uint64{1}}),
		// The box at the cap claims 32 768 words; the frame ends after 8.
		"bitmap longer than the frame": truncated[:len(truncated)-len(full)*8+64],
	}
}

// TestDecodeRejectsMalformedKeyFilter: a key filter whose box overflows,
// whose bitmap does not match its box's cells, or whose bitmap runs past
// the frame is malformed input, rejected at the decoder without leaking
// pooled objects and allocating on the order of the frame, not of the
// bitmap it claims — never a member that panics or misfilters.
func TestDecodeRejectsMalformedKeyFilter(t *testing.T) {
	core.TrackPools(true)
	defer core.TrackPools(false)
	for name, frame := range badKeyFilterFrames(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := rbuf{b: frame}
		m, err := newDecoder(nil).decodeMsg(&r)
		runtime.ReadMemStats(&after)
		if err == nil {
			freeLocal(m)
			t.Errorf("%s: decoded", name)
			continue
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(frame))+64<<10 {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes", name, len(frame), got)
		}
	}
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Fatalf("rejected decodes leaked pooled objects: %s", core.PoolBalanceString())
	}
}

// FuzzEventCodec throws arbitrary bytes at the event decoder: malformed
// frames must be rejected without panicking or leaking pooled objects,
// and anything that decodes must re-encode to a byte-stable canonical
// form.
func FuzzEventCodec(f *testing.F) {
	for _, ev := range sampleEvents() {
		f.Add(encodeOne(f, nil, ev))
	}
	f.Add([]byte{})
	f.Add([]byte{mtEvent})
	f.Add(unknownPredKindFrame(f))
	for _, frame := range badKeyFilterFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		core.TrackPools(true)
		defer core.TrackPools(false)
		roundTrip(t, data)
		if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
			t.Fatalf("decode leaked pooled objects: %s", core.PoolBalanceString())
		}
	})
}

// FuzzDataMsgCodec is FuzzEventCodec for the data plane: batch frames
// with inline schemas, including truncated and corrupt column vectors.
func FuzzDataMsgCodec(f *testing.F) {
	for _, m := range sampleDataMsgs() {
		f.Add(encodeOne(f, nil, m))
	}
	f.Add([]byte{mtData})
	f.Add([]byte{mtData, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(wideMalformedFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		core.TrackPools(true)
		defer core.TrackPools(false)
		roundTrip(t, data)
		if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
			t.Fatalf("decode leaked pooled objects: %s", core.PoolBalanceString())
		}
	})
}

// wideMalformedFrame is a data frame whose batch declares 256 int
// columns and as many rows as the frame has bytes after the row count:
// within the bound count() puts on any element count, but a tiny
// fraction of what 256 columns of 8-byte cells need.
func wideMalformedFrame(t testing.TB) []byte {
	t.Helper()
	cols := make([]storage.Column, 256)
	for i := range cols {
		cols[i] = storage.Column{Kind: storage.KInt, Name: fmt.Sprintf("c%d", i)}
	}
	b := storage.NewBatch(storage.NewSchema("wide", cols...))
	frame := encodeOne(t, nil, &core.DataMsg{Stream: 31, Query: 4, Producers: 1, Batch: b})
	// The empty batch's encoding ends with its row count (0): rewrite it
	// to the length of the filler appended after it.
	const filler = 1 << 16
	binary.LittleEndian.PutUint64(frame[len(frame)-8:], filler)
	return append(frame, make([]byte, filler)...)
}

// TestDecodeBatchAllocationBounded pins that rejecting a malformed data
// frame allocates on the order of the frame, not of the row count it
// claims times its column count: the wide frame must fail as malformed
// having allocated under 8 MB.
func TestDecodeBatchAllocationBounded(t *testing.T) {
	core.TrackPools(true)
	defer core.TrackPools(false)
	frame := wideMalformedFrame(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := rbuf{b: frame}
	_, err := newDecoder(nil).decodeMsg(&r)
	runtime.ReadMemStats(&after)
	if err != errMalformed {
		t.Fatalf("decode of a %d-byte frame: err = %v, want %v", len(frame), err, errMalformed)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes, want under 8 MB", len(frame), got)
	}
	if e, d, b := core.PoolBalances(); e != 0 || d != 0 || b != 0 {
		t.Fatalf("decode leaked pooled objects: %s", core.PoolBalanceString())
	}
}

// BenchmarkEventCodec measures the steady-state encode of a pipelined
// payment's segment event — the transport hot path — and gates it at
// zero allocations per op: the frame buffer is reused, so a regression
// here silently taxes every cross-process transaction.
func BenchmarkEventCodec(b *testing.B) {
	ev := &core.Event{Kind: core.EvSegment, Txn: 7, Payload: sampleSegment()}
	var e encoder
	if err := e.encodeMsg(ev); err != nil {
		b.Fatal(err)
	}
	frame := len(e.w.b)
	b.SetBytes(int64(frame))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.w.reset()
		if err := e.encodeMsg(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if avg := testing.AllocsPerRun(200, func() {
		e.w.reset()
		_ = e.encodeMsg(ev)
	}); avg != 0 {
		b.Fatalf("steady-state encode allocates %.1f/op, want 0", avg)
	}
}
