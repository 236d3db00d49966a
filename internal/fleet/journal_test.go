package fleet

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tetriswrite/internal/system"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"tetris"}, Instr: 1000}
	res := ShardResult{Fp: "deadbeefdeadbeef", Summary: system.Summary{Workload: "vips", Scheme: "tetris", IPC: 1.25}}
	want := []Record{
		{Type: "job", Job: "j0000", Spec: &spec},
		{Type: "shard", Job: "j0000", Shard: 3, Attempt: 2, Result: &res},
		{Type: "done", Job: "j0000", State: "completed"},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Type != want[i].Type || r.Job != want[i].Job || r.V != 1 {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	if got := *recs[1].Result; got != res {
		t.Errorf("shard result did not survive the round trip: %+v vs %+v", got, res)
	}
	if recs[0].Spec == nil || recs[0].Spec.Instr != 1000 {
		t.Errorf("spec did not survive: %+v", recs[0].Spec)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay drops it and the next append overwrites it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	body := `{"v":1,"type":"job","job":"j0000"}` + "\n" + `{"v":1,"type":"shar`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Job != "j0000" {
		t.Fatalf("replayed %+v, want just the complete record", recs)
	}
	if err := j.Append(Record{Type: "done", Job: "j0000", State: "failed"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 || recs[1].Type != "done" {
		t.Fatalf("after overwrite: %+v, want the torn line replaced by the new record", recs)
	}
}

// TestJournalCorruptionMidFile: a malformed line with records after it
// is real corruption, not a torn append, and must be rejected loudly.
func TestJournalCorruptionMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	body := `{"v":1,"type":"job","job":"j0000"}` + "\n" + "garbage\n" + `{"v":1,"type":"done","job":"j0000"}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// writeThree appends three checksummed records and returns the path.
func writeThree(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Type: "job", Job: "j0000"},
		{Type: "shard", Job: "j0000", Shard: 1, Attempt: 1},
		{Type: "done", Job: "j0000", State: "completed"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	return path
}

// TestJournalChecksumStamped: Append stamps a CRC that survives the
// round trip and verifies.
func TestJournalChecksumStamped(t *testing.T) {
	path := writeThree(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.CRC == 0 {
			t.Errorf("record %d replayed without a checksum", i+1)
		}
	}
}

// TestJournalChecksumCorruptionMidFile: bit-rot inside a mid-file
// record — still valid JSON, wrong payload — must fail replay and name
// the record.
func TestJournalChecksumCorruptionMidFile(t *testing.T) {
	path := writeThree(t)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the shard number of record 2: JSON stays well-formed, the
	// stored checksum no longer matches.
	tampered := strings.Replace(string(body), `"shard":1`, `"shard":7`, 1)
	if tampered == string(body) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenJournal(path)
	if err == nil {
		t.Fatal("checksum corruption mid-file accepted")
	}
	if !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error does not name the corrupt record: %v", err)
	}
}

// TestJournalChecksumCorruptFinalLine: the same bit-rot on the final
// record is indistinguishable from a torn append and is dropped.
func TestJournalChecksumCorruptFinalLine(t *testing.T) {
	path := writeThree(t)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(body), `"state":"completed"`, `"state":"collapsed"`, 1)
	if tampered == string(body) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("corrupt final line rejected: %v", err)
	}
	defer j.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (corrupt tail dropped)", len(recs))
	}
}

// TestJournalLegacyRecordsAccepted: records without a crc field (the
// pre-checksum format) replay unverified.
func TestJournalLegacyRecordsAccepted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	body := `{"v":1,"type":"job","job":"j0000"}` + "\n" + `{"v":1,"type":"done","job":"j0000","state":"completed"}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("legacy journal rejected: %v", err)
	}
	defer j.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d legacy records, want 2", len(recs))
	}
}

// TestJournalReplaysV2Journal: testdata/journal_v2.jsonl was written by
// a broker whose specs still carried the event-queue selector ("engine")
// under fingerprint v2 — a completed two-shard job and a running job
// with one of its two shards done. The checksummed records must replay,
// the completed job must render from its journaled results (which equal
// a fresh run), the running job must resume with only its missing shard
// re-issued, and the restored results must answer a resubmission.
func TestJournalReplaysV2Journal(t *testing.T) {
	raw, err := os.ReadFile("testdata/journal_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("v2 journal rejected: %v", err)
	}
	j.Close()
	if len(recs) != 6 || recs[0].Spec == nil || recs[0].Spec.LegacyEngine != "wheel" {
		t.Fatalf("replayed %d records, first spec %+v; want 6 with engine wheel", len(recs), recs[0].Spec)
	}

	clk := newFakeClock()
	b, err := New(Config{JournalPath: path, LeaseTTL: time.Second, Now: clk.Now})
	if err != nil {
		t.Fatalf("broker on a v2 journal: %v", err)
	}
	defer b.Close()
	st, _ := b.Status("j0000")
	if st.State != string(JobCompleted) || st.Shards.Done != 2 || st.Spec.LegacyEngine != "" {
		t.Fatalf("completed v2 job: %+v", st)
	}
	for _, sh := range b.jobs["j0000"].shards {
		fresh, err := RunShard(context.Background(), sh.spec)
		if err != nil {
			t.Fatal(err)
		}
		if sh.result.Fp != sh.fp || sh.result.Summary != fresh {
			t.Errorf("%s: restored %+v, fresh run %+v (fp %s)", sh.spec, sh.result, fresh, sh.fp)
		}
	}
	if st, _ := b.Status("j0001"); st.State != string(JobRunning) || st.Shards.Restored != 1 || st.Shards.Pending != 1 {
		t.Fatalf("running v2 job: %+v", st)
	}

	id, err := b.Submit(SweepSpec{Workloads: []string{"vips"}, Schemes: []string{"dcw", "tetris"}, Instr: 2000, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := b.Status(id); st.State != string(JobCompleted) || st.Shards.Cached != 2 {
		t.Fatalf("resubmission of the v2 job not served from cache: %+v", st)
	}
	if _, err := b.Submit(SweepSpec{LegacyEngine: "heap"}); err == nil {
		t.Error("spec carrying the retired engine selector accepted")
	}
}

// TestJournalNilSafe: a broker without a journal path calls through a
// nil *Journal everywhere; every method must be a no-op.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Append(Record{Type: "job"}); err != nil {
		t.Errorf("nil Append = %v", err)
	}
	if p := j.Path(); p != "" {
		t.Errorf("nil Path = %q", p)
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}
