package anydb_test

// Kill-and-restart crash recovery: a child process runs a durable
// cluster (Durability Batch) and keeps a 16-deep window of payments in
// flight across both warehouses, so the log writer always has a group
// on the device or queued behind it. Every payment adds a distinct
// power of three to one of 16 customers ("lanes"), and the child prints
// an ACK line per acknowledged commit. The parent SIGKILLs it mid-burst,
// reopens the same WALDir, and checks (a) TPC-C Verify is clean after
// replay and (b) the base-3 digits of each lane's replayed payment
// total show every acknowledged transaction applied exactly once —
// digit 1, never 0 (lost) or 2 (doubled). Unacknowledged transactions
// may legally land at 0 or 1 (logged-but-unacked at the crash).
//
// The same digit check referees the other recovery contracts here: a
// WALDir holding per-dispatcher logs from before the shared log, and a
// Close racing a pipelined burst.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"anydb"
	"anydb/internal/tpcc"
	"anydb/internal/wal"
)

const (
	// crashDigits is bounded by float64 exactness: 3^32 < 2^53, and the
	// sum of all 33 powers still is.
	crashDigits = 33
	// crashLanes customers each accumulate their own base-3 number;
	// payment i pays 3^(i/crashLanes) to lane i%crashLanes.
	crashLanes    = 16
	crashPayments = crashDigits * crashLanes
	crashWindow   = 16
)

func crashConfig(dir string) anydb.Config {
	return anydb.Config{
		Warehouses: 2, Districts: 2, CustomersPerDistrict: 30,
		Items: 40, InitialOrdersPerDist: 10, Seed: 4,
		Durability: anydb.DurabilityBatch, WALDir: dir,
	}
}

// crashPayment is payment i of the burst: consecutive payments alternate
// warehouses, so a window always spans both dispatchers.
func crashPayment(i int) anydb.Payment {
	lane := i % crashLanes
	return anydb.Payment{
		Warehouse: lane % 2, District: 1 + lane/2%2, Customer: 1 + lane/4,
		Amount: math.Pow(3, float64(i/crashLanes)),
	}
}

// laneYTD reads the replay-sensitive aggregate: payments add their
// amount to the customer's c_ytd_payment, so each lane's delta over a
// fresh population decodes exactly which of its amounts applied.
func laneYTD(t *testing.T, c *anydb.Cluster) [crashLanes]float64 {
	t.Helper()
	rows, err := c.Query(context.Background(), fmt.Sprintf(
		"SELECT c_w_id, c_d_id, c_id, SUM(c_ytd_payment) FROM customer WHERE c_id <= %d GROUP BY c_w_id, c_d_id, c_id",
		crashLanes/4))
	if err != nil {
		t.Fatalf("lane ytd: %v", err)
	}
	defer rows.Close()
	var out [crashLanes]float64
	seen := 0
	for rows.Next() {
		var w, d, cid int
		var sum float64
		if err := rows.Scan(&w, &d, &cid, &sum); err != nil {
			t.Fatalf("lane ytd: %v", err)
		}
		out[w+2*(d-1)+4*(cid-1)] = sum
		seen++
	}
	if seen != crashLanes {
		t.Fatalf("lane ytd: %d lanes, want %d", seen, crashLanes)
	}
	return out
}

// freshLaneYTD is the aggregate before any payment.
func freshLaneYTD(t *testing.T) [crashLanes]float64 {
	t.Helper()
	base, err := anydb.Open(crashConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	return laneYTD(t, base)
}

// checkExactlyOnce decodes every lane's base-3 delta: an acknowledged
// payment must show digit 1; an unacknowledged one 0 or 1; nothing 2.
func checkExactlyOnce(t *testing.T, c *anydb.Cluster, ytd0 [crashLanes]float64, acked map[int]bool) {
	t.Helper()
	ytd := laneYTD(t, c)
	for lane := 0; lane < crashLanes; lane++ {
		delta := ytd[lane] - ytd0[lane]
		rem := delta
		for e := crashDigits - 1; e >= 0; e-- {
			i := e*crashLanes + lane
			p := math.Pow(3, float64(e))
			digit := math.Floor(rem / p)
			rem -= digit * p
			switch {
			case digit == 1:
				// Applied once. Unacknowledged is legal: logged at
				// admit, cut off before the ack — durability promises
				// at-least-the-acked-set.
			case digit == 0 && !acked[i]:
			case digit == 0 && acked[i]:
				t.Errorf("payment %d was acknowledged but lost in replay", i)
			default:
				t.Errorf("payment %d applied %v times (lane %d delta %v)", i, digit, lane, delta)
			}
		}
		if rem != 0 {
			t.Errorf("lane %d ytd delta %v does not decompose into the payment amounts (residue %v)", lane, delta, rem)
		}
	}
}

// TestCrashChild is the re-exec target, not a test in its own right:
// it only runs with ANYDB_CRASH_DIR set, and it never exits cleanly —
// the parent kills it.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("ANYDB_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-child mode only (run by TestCrashRecovery)")
	}
	c, err := anydb.Open(crashConfig(dir))
	if err != nil {
		fmt.Fprintf(os.Stdout, "CHILD-ERR open: %v\n", err)
		os.Exit(1)
	}
	ctx := context.Background()
	var futs [crashWindow]*anydb.Future
	for i := 0; i < crashPayments+crashWindow; i++ {
		if i >= crashWindow {
			// Retire the oldest payment of the window before reusing
			// its slot; the rest stay in flight.
			j := i - crashWindow
			committed, err := futs[j%crashWindow].Wait(ctx)
			if err != nil {
				fmt.Fprintf(os.Stdout, "CHILD-ERR wait %d: %v\n", j, err)
				os.Exit(1)
			}
			if committed {
				// The ack implies the record was fsynced (a transaction
				// dispatches only after the log writer reported its
				// group durable), so every printed line MUST survive
				// the parent's kill.
				fmt.Fprintf(os.Stdout, "ACK %d\n", j)
			}
		}
		if i < crashPayments {
			f, err := c.SubmitPayment(ctx, crashPayment(i))
			if err != nil {
				fmt.Fprintf(os.Stdout, "CHILD-ERR submit %d: %v\n", i, err)
				os.Exit(1)
			}
			futs[i%crashWindow] = f
		}
	}
	fmt.Fprintln(os.Stdout, "CHILD-DONE")
	// Never Close: hold the log open until the kill arrives.
	time.Sleep(time.Minute)
}

func TestCrashRecovery(t *testing.T) {
	if os.Getenv("ANYDB_CRASH_DIR") != "" {
		t.Skip("already in crash-child mode")
	}
	dir := t.TempDir()
	ytd0 := freshLaneYTD(t)

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "ANYDB_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Read ACK lines until roughly a third of the burst is in, then
	// kill mid-stream. Every line fully read before EOF counts as
	// acknowledged, including those racing the kill.
	acked := make(map[int]bool)
	killed, done := false, false
	deadline := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "CHILD-ERR") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child failed: %s", line)
		}
		if n, ok := strings.CutPrefix(line, "ACK "); ok {
			i, err := strconv.Atoi(n)
			if err == nil {
				acked[i] = true
			}
		}
		done = done || line == "CHILD-DONE"
		if !killed && (len(acked) >= crashPayments/3 || done) {
			killed = true
			cmd.Process.Kill()
		}
	}
	deadline.Stop()
	cmd.Wait()
	if len(acked) == 0 {
		t.Fatal("child acknowledged nothing before the kill")
	}
	t.Logf("killed child after %d of %d payments were acknowledged (burst finished first: %v)", len(acked), crashPayments, done)

	// Recovery: reopen the same WALDir. Replay must leave a
	// Verify-clean state with every acknowledged payment applied
	// exactly once.
	c, err := anydb.Open(crashConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer c.Close()
	if err := c.Verify(); err != nil {
		t.Fatalf("replayed state fails TPC-C verification: %v", err)
	}
	checkExactlyOnce(t, c, ytd0, acked)
}

// TestCrashRecoveryLegacyWALDir reopens a directory written before the
// shared log existed: two per-dispatcher files, wal-0000.log and
// wal-0001.log. Open must replay them, leave them untouched, put new
// commits into the shared log, and a further reopen must apply all
// three files exactly once.
func TestCrashRecoveryLegacyWALDir(t *testing.T) {
	dir := t.TempDir()
	ytd0 := freshLaneYTD(t)
	acked := make(map[int]bool)

	// Payments 0..63 as the old code would have left them: each
	// dispatcher's own file with its own LSN sequence, warehouse 0's
	// dispatcher in wal-0000.log and warehouse 1's in wal-0001.log.
	const legacy = 64
	legacyBytes := make(map[string][]byte)
	for w := 0; w < 2; w++ {
		path := filepath.Join(dir, fmt.Sprintf("wal-%04d.log", w))
		dev, err := wal.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		log := wal.NewLogger(dev, 0)
		for i := w; i < legacy; i += 2 {
			p := crashPayment(i)
			txn := &tpcc.Txn{Kind: tpcc.TxnPayment, Payment: tpcc.Payment{
				W: p.Warehouse, D: p.District, CW: p.Warehouse, CD: p.District, C: p.Customer, Amount: p.Amount,
			}}
			if _, err := log.Append(txn); err != nil {
				t.Fatal(err)
			}
			acked[i] = true
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		dev.Close()
		if legacyBytes[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	// First reopen: legacy history replays, new commits go to the
	// shared log.
	c, err := anydb.Open(crashConfig(dir))
	if err != nil {
		t.Fatalf("open on a legacy WALDir: %v", err)
	}
	ctx := context.Background()
	for i := legacy; i < 2*legacy; i++ {
		f, err := c.SubmitPayment(ctx, crashPayment(i))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := f.Wait(ctx); err != nil || !ok {
			t.Fatalf("payment %d: committed=%v err=%v", i, ok, err)
		}
		acked[i] = true
	}
	if st := c.Stats(); st.WALRecords != legacy {
		t.Fatalf("Stats().WALRecords = %d after %d durable commits", st.WALRecords, legacy)
	}
	checkExactlyOnce(t, c, ytd0, acked)
	c.Close()

	for path, want := range legacyBytes {
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("legacy log %s changed after reopen (err %v)", filepath.Base(path), err)
		}
	}
	if st, err := os.Stat(filepath.Join(dir, "wal-shared.log")); err != nil || st.Size() == 0 {
		t.Fatalf("new commits did not land in wal-shared.log: %v", err)
	}

	// Second reopen: two legacy files plus the shared log, each exactly
	// once.
	c, err = anydb.Open(crashConfig(dir))
	if err != nil {
		t.Fatalf("reopen over legacy + shared logs: %v", err)
	}
	defer c.Close()
	if err := c.Verify(); err != nil {
		t.Fatalf("replayed state fails TPC-C verification: %v", err)
	}
	checkExactlyOnce(t, c, ytd0, acked)
}

// TestCrashRecoveryCloseMidBurst closes the cluster while four
// submitters keep pipelined windows in flight. Close drains, stops the
// engine, then stops the log writer; every commit acknowledged before
// or during that sequence must be in the log on reopen, and later
// submissions must fail with ErrClosed rather than hang.
func TestCrashRecoveryCloseMidBurst(t *testing.T) {
	for _, mode := range []anydb.Durability{anydb.DurabilityBatch} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			ytd0 := freshLaneYTD(t)
			cfg := crashConfig(dir)
			cfg.Durability = mode
			c, err := anydb.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const submitters = 4
			var (
				mu    sync.Mutex
				acked = make(map[int]bool)
				wg    sync.WaitGroup
			)
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					type inflight struct {
						i int
						f *anydb.Future
					}
					var win []inflight
					retire := func(keep int) {
						for len(win) > keep {
							ok, err := win[0].f.Wait(ctx)
							if err != nil && !errors.Is(err, anydb.ErrClosed) {
								t.Errorf("payment %d: %v", win[0].i, err)
							}
							if ok {
								mu.Lock()
								acked[win[0].i] = true
								mu.Unlock()
							}
							win = win[1:]
						}
					}
					for i := g; i < crashPayments; i += submitters {
						f, err := c.SubmitPayment(ctx, crashPayment(i))
						if err != nil {
							if !errors.Is(err, anydb.ErrClosed) {
								t.Errorf("submit %d: %v", i, err)
							}
							break
						}
						win = append(win, inflight{i, f})
						retire(crashWindow - 1)
					}
					retire(0)
				}(g)
			}
			// Let the burst get going, then close underneath it.
			for {
				mu.Lock()
				n := len(acked)
				mu.Unlock()
				if n >= crashPayments/4 {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			c.Close()
			wg.Wait()
			st := c.Stats()
			if st.WALRecords < uint64(len(acked)) || st.WALSyncs == 0 || st.WALSyncs > st.WALRecords {
				t.Fatalf("Stats: %d records / %d syncs for %d acknowledged commits", st.WALRecords, st.WALSyncs, len(acked))
			}
			t.Logf("closed after %d of %d payments; %d records in %d fsyncs", len(acked), crashPayments, st.WALRecords, st.WALSyncs)

			c, err = anydb.Open(cfg)
			if err != nil {
				t.Fatalf("reopen after Close: %v", err)
			}
			defer c.Close()
			if err := c.Verify(); err != nil {
				t.Fatalf("replayed state fails TPC-C verification: %v", err)
			}
			checkExactlyOnce(t, c, ytd0, acked)
		})
	}
}
