package txn

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/clock"
	"servicebroker/internal/qos"
	"servicebroker/internal/testutil"
)

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []JournalRecord{
		{Key: IdemKey("t1", 1, "hold"), Status: 1, Fidelity: int(qos.FidelityFull), Payload: []byte("held")},
		{Key: IdemKey("t1", 2, "charge"), Status: 1, Payload: []byte{0x00, 0xff, '\n', 'x'}},
		{Key: IdemKey("t2", 1, "hold"), Status: 3},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recs[0]); err != ErrJournalClosed {
		t.Fatalf("append after close: %v, want ErrJournalClosed", err)
	}

	var got []JournalRecord
	n, err := ReplayJournal(path, func(r JournalRecord) { got = append(got, r) })
	if err != nil || n != 3 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	for i := range recs {
		if got[i].Key != recs[i].Key || got[i].Status != recs[i].Status ||
			string(got[i].Payload) != string(recs[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestJournalReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j1.Append(JournalRecord{Key: "a", Status: 1})
	j1.Close()

	j2, err := OpenJournal(path, true) // fsync variant also exercised
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(JournalRecord{Key: "b", Status: 1})
	j2.Close()

	n, err := ReplayJournal(path, func(JournalRecord) {})
	if err != nil || n != 2 {
		t.Fatalf("reopened journal replay: n=%d err=%v", n, err)
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, err := ReplayJournal(filepath.Join(t.TempDir(), "absent"), func(JournalRecord) {
		t.Fatal("callback fired for missing file")
	})
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
}

func TestReplayTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")
	j, _ := OpenJournal(path, false)
	j.Append(JournalRecord{Key: "intact", Status: 1})
	j.Close()
	// Simulate a crash mid-append: a truncated, newline-less final record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","sta`)
	f.Close()

	var keys []string
	n, err := ReplayJournal(path, func(r JournalRecord) { keys = append(keys, r.Key) })
	if err != nil {
		t.Fatalf("torn tail must replay cleanly: %v", err)
	}
	if n != 1 || len(keys) != 1 || keys[0] != "intact" {
		t.Fatalf("replayed %v (n=%d), want just [intact]", keys, n)
	}
}

// A crash mid-append leaves a newline-less tail. The next life replays past
// it and reopens the journal; its first append must start on a line of its
// own, or the glued record corrupts the journal for the life after.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(JournalRecord{Key: "intact", Status: 1})
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","sta`)
	f.Close()

	if n, err := ReplayJournal(path, func(JournalRecord) {}); err != nil || n != 1 {
		t.Fatalf("replay after the crash: n=%d err=%v, want 1 record", n, err)
	}
	j, err = OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Key: "after", Status: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var keys []string
	n, err := ReplayJournal(path, func(r JournalRecord) { keys = append(keys, r.Key) })
	if err != nil {
		t.Fatalf("replay after the next life: %v", err)
	}
	if n != 2 || strings.Join(keys, ",") != "intact,after" {
		t.Fatalf("replayed %v (n=%d), want [intact after]", keys, n)
	}
}

func TestReplayMidFileCorruptionErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")
	content := `{"key":"ok","status":1}` + "\n" +
		`garbage not json` + "\n" +
		`{"key":"after","status":1}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayJournal(path, func(JournalRecord) {})
	if err == nil {
		t.Fatal("mid-file corruption not reported")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want corruption error", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records before corruption, want 1", n)
	}
}

func TestRestoreTableReArmsIdempotency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")

	// First life: a broker records outcomes through the OnRecord hook.
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewIdemTable(16, 0)
	tbl.OnRecord(func(key string, out Outcome, at time.Time) {
		if err := j.AppendOutcome(key, out, at); err != nil {
			t.Errorf("journal append: %v", err)
		}
	})
	key := IdemKey("t9", 2, "charge-card")
	_, _, tk := tbl.Acquire(key)
	tk.Complete(Outcome{Status: 1, Fidelity: qos.FidelityFull, Payload: []byte("charged $42")})
	j.Close()

	// Second life: a fresh table (restarted brokerd) restores from disk and
	// answers the replayed duplicate without executing.
	tbl2 := NewIdemTable(16, 0)
	n, err := RestoreTable(path, tbl2)
	if err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	out, hit, _ := tbl2.Acquire(key)
	if !hit {
		t.Fatal("restored table did not replay the recorded outcome")
	}
	if out.Status != 1 || out.Fidelity != qos.FidelityFull || string(out.Payload) != "charged $42" {
		t.Fatalf("restored outcome = %+v", out)
	}
}

// A restarted table keeps each journaled outcome's record time: an outcome
// that expired before the restart is not replayed, a live one expires when it
// would have without the restart, a record time that runs backwards is
// raised to the one before it, and a record without a time (an older
// journal's) restores as recorded at replay time.
func TestRestoreTableKeepsRecordTimes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.journal")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	advance := testutil.FakeClock(t)
	tbl := NewIdemTable(16, time.Minute)
	tbl.OnRecord(func(key string, out Outcome, at time.Time) {
		if err := j.AppendOutcome(key, out, at); err != nil {
			t.Errorf("journal append: %v", err)
		}
	})
	record := func(key string) {
		_, _, tk := tbl.Acquire(key)
		tk.Complete(Outcome{Status: 1, Payload: []byte(key)})
	}
	record("old") // at 1000
	advance(50 * time.Second)
	record("young")
	for _, rec := range []JournalRecord{
		{Key: "skewed", Status: 1, At: time.Unix(1040, 0).UnixNano()},
		{Key: "untimed", Status: 1},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	advance(20 * time.Second) // the restart: "old" is 70 s old, past the 60 s TTL
	tbl2 := NewIdemTable(16, time.Minute)
	n, err := RestoreTable(path, tbl2)
	if err != nil || n != 3 {
		t.Fatalf("restore: n=%d err=%v, want 3 outcomes", n, err)
	}
	if st := tbl2.Stats(); st.Size != 3 || st.Restored != 3 || st.Expired != 0 || st.Evicted != 0 || st.ReplayEvicted != 0 {
		t.Fatalf("after restore: %+v", st)
	}
	live := func(at int64, want map[string]bool) {
		t.Helper()
		advance(time.Unix(at, 0).Sub(clock.Now()))
		for key, ok := range want {
			if _, got := tbl2.Lookup(key); got != ok {
				t.Errorf("at %d: Lookup(%s) = %v, want %v", at, key, got, ok)
			}
		}
	}
	live(1070, map[string]bool{"old": false, "young": true, "skewed": true, "untimed": true})
	live(1105, map[string]bool{"young": true, "skewed": true, "untimed": true})
	live(1111, map[string]bool{"young": false, "skewed": false, "untimed": true})
	live(1131, map[string]bool{"untimed": false})
}

// FuzzReplayJournal writes b as a journal file: replay must not panic,
// whatever the bytes. It then builds a valid journal from b's "|"-separated
// pieces, cuts it at byte cut, and runs the next life on the cut file: after
// OpenJournal and one Append, replay must succeed, hand back every record
// whose line the cut left whole, and end with the appended one.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(`{"key":"intact","status":1}`+"\n"+`{"key":"torn","sta`), uint16(40))
	f.Add([]byte("hold|charge|ship"), uint16(0))
	f.Add([]byte("hold|charge|ship"), uint16(30))
	f.Add([]byte("a|\x00\xff\n|c"), uint16(1000))
	f.Add([]byte("garbage not json\n{}\n"), uint16(5))
	f.Fuzz(func(t *testing.T, b []byte, cut uint16) {
		dir := t.TempDir()
		raw := filepath.Join(dir, "raw")
		if err := os.WriteFile(raw, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReplayJournal(raw, func(JournalRecord) {})

		path := filepath.Join(dir, "journal")
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, piece := range bytes.Split(b, []byte("|")) {
			if err := j.Append(JournalRecord{Key: string(piece), Status: i, Payload: piece}); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := int(cut) % (len(whole) + 1)
		if err := os.WriteFile(path, whole[:at], 0o644); err != nil {
			t.Fatal(err)
		}

		last := JournalRecord{Key: "next life", Status: 7, Payload: []byte("after")}
		if j, err = OpenJournal(path, false); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(last); err != nil {
			t.Fatal(err)
		}
		j.Close()
		var got []JournalRecord
		n, err := ReplayJournal(path, func(r JournalRecord) { got = append(got, r) })
		if err != nil {
			t.Fatalf("replay after a cut at %d of %d bytes: %v", at, len(whole), err)
		}
		if want := bytes.Count(whole[:at], []byte("\n")) + 1; n != want {
			t.Fatalf("replayed %d records after a cut at %d of %d bytes, want %d", n, at, len(whole), want)
		}
		if r := got[n-1]; r.Key != last.Key || r.Status != last.Status || string(r.Payload) != "after" {
			t.Fatalf("last replayed record = %+v, want %+v", r, last)
		}
	})
}
