// Package route assembles a cluster's ACs and decides who does what. It
// covers three things every runtime shares: the role layout (which ACs
// execute record classes, own partitions, dispatch, sequence, coordinate
// and optimize queries), the behavior set each AC carries (Assembly), and
// the standard routing tables of the §3 execution strategies (For,
// Entry). The public cluster (anydb.Open), a member process
// (anydb.ServeNode) and the virtual-time harness (internal/bench) all
// build their ACs through one Assembly, so the paper figures run the
// cluster users run and the runtimes can never drift.
package route

import (
	"anydb/internal/core"
	"anydb/internal/oltp"
)

// Layout names the AC roles a routing table is built from. Execs are the
// record-class executors (by convention the first server's ACs, which
// also own the partitions); Dispatch, Seq, Coord and QO live on the
// control server. Indices into Execs wrap modulo its length, so layouts
// with fewer or more than the canonical four executors still route.
type Layout struct {
	// Owner maps a partition (warehouse) to the AC owning it.
	Owner func(partition int) core.ACID
	// Execs are the ACs the fine-grained policies spread record classes
	// over. Must be non-empty.
	Execs []core.ACID
	// Dispatch is the central transaction entry AC for the pipelined
	// policies (precise intra-txn, streaming CC).
	Dispatch core.ACID
	// Seq is the sequencer AC (streaming CC stamping).
	Seq core.ACID
	// Coord is the dedicated commit coordinator AC (streaming CC);
	// the other policies coordinate at the dispatcher.
	Coord core.ACID
	// QO is the default query-optimizer AC.
	QO core.ACID
}

func (l Layout) exec(i int) core.ACID { return l.Execs[i%len(l.Execs)] }

// For returns the standard routing table for policy p over layout l.
//
//   - SharedNothing (Fig. 4b): transactions aggregate at partition
//     owners; no class routing.
//   - NaiveIntra (Fig. 4c): every record class on its own executor —
//     warehouse+order, district+stock, customer, history — with commit
//     coordination (and the admission barrier) at the dispatcher.
//   - PreciseIntra (Fig. 4d): two balanced sub-sequences — the brief
//     updates on one AC, the long customer/stock work on a second.
//   - StreamingCC (§3.3): per-class segments stamped by the sequencer,
//     committed by the dedicated coordinator.
func For(p oltp.Policy, l Layout) oltp.Routes {
	r := oltp.Routes{Owner: l.Owner, Seq: l.Seq, Coord: core.NoAC}
	switch p {
	case oltp.StreamingCC:
		r.ClassRoute = func(w int, c oltp.Class) core.ACID {
			switch c {
			case oltp.ClassCustomer:
				return l.exec(1)
			case oltp.ClassHistory:
				return l.exec(2)
			case oltp.ClassStock:
				return l.exec(3)
			default:
				return l.exec(0)
			}
		}
		r.Coord = l.Coord
	case oltp.PreciseIntra:
		r.ClassRoute = func(w int, c oltp.Class) core.ACID {
			if c == oltp.ClassCustomer || c == oltp.ClassStock {
				return l.exec(1)
			}
			return l.exec(0)
		}
	case oltp.NaiveIntra:
		r.ClassRoute = func(w int, c oltp.Class) core.ACID {
			switch c {
			case oltp.ClassWarehouse, oltp.ClassOrder:
				return l.exec(0)
			case oltp.ClassDistrict, oltp.ClassStock:
				return l.exec(1)
			case oltp.ClassCustomer:
				return l.exec(2)
			default: // history
				return l.exec(3)
			}
		}
	}
	return r
}

// Entry picks the AC where a transaction with the given home warehouse
// enters the system: under shared-nothing the partition owner itself
// acts as dispatcher (physically aggregated execution); naive-intra
// co-locates the dispatcher with the executors so its admission barrier
// pays local hops only — and keeps all admissions on ONE dispatcher,
// which the per-home serialization depends on; the pipelined policies
// use the central dispatch AC.
func Entry(p oltp.Policy, l Layout, home int) core.ACID {
	switch p {
	case oltp.SharedNothing:
		return l.Owner(home)
	case oltp.NaiveIntra:
		return l.exec(3)
	default:
		return l.Dispatch
	}
}
