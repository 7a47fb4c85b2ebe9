package tunedb

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

type scanRec struct {
	N int `json:"n"`
}

func journalOf(t *testing.T, ns ...int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, n := range ns {
		line, err := EncodeRecord("rec", scanRec{N: n})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestEncodeDecodeRecordRoundtrip: a framed line decodes back to its
// type and payload, and a flipped payload byte fails the CRC.
func TestEncodeDecodeRecordRoundtrip(t *testing.T) {
	line, err := EncodeRecord("rec", scanRec{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := decodeRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if typ != "rec" {
		t.Fatalf("type = %q", typ)
	}
	var r scanRec
	if err := json.Unmarshal(payload, &r); err != nil || r.N != 7 {
		t.Fatalf("payload = %s (err %v)", payload, err)
	}
	bad := bytes.Replace(line, []byte(`"n":7`), []byte(`"n":9`), 1)
	if _, _, err := decodeRecord(bad); err == nil {
		t.Fatal("CRC mismatch went undetected")
	}
}

// TestScanJournalReplaysInOrder: every record is replayed in journal
// order and the full length is reported valid.
func TestScanJournalReplaysInOrder(t *testing.T) {
	data := journalOf(t, 1, 2, 3)
	var seen []int
	n, err := ScanJournal(data, func(typ string, payload json.RawMessage) error {
		var r scanRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		seen = append(seen, r.N)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("valid prefix %d, want the full %d bytes", n, len(data))
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("replayed %v", seen)
	}
}

// TestScanJournalTornTail: truncating the final record anywhere stops
// the scan cleanly at the last complete record.
func TestScanJournalTornTail(t *testing.T) {
	data := journalOf(t, 1, 2)
	first := bytes.IndexByte(data, '\n') + 1
	for cut := first; cut < len(data); cut++ {
		var count int
		n, err := ScanJournal(data[:cut], func(string, json.RawMessage) error {
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n != first || count != 1 {
			t.Fatalf("cut at %d: valid prefix %d with %d records, want %d with 1", cut, n, first, count)
		}
	}
}

// TestScanJournalInteriorCorruption: a bad record followed by a valid
// one is corruption, not a torn tail.
func TestScanJournalInteriorCorruption(t *testing.T) {
	data := journalOf(t, 1, 2)
	data[2] ^= 0xff
	if _, err := ScanJournal(data, func(string, json.RawMessage) error { return nil }); err == nil {
		t.Fatal("interior corruption went undetected")
	}
}

// TestScanJournalCallbackError: a callback error surfaces with the
// offset of the offending record.
func TestScanJournalCallbackError(t *testing.T) {
	data := journalOf(t, 1, 2)
	first := bytes.IndexByte(data, '\n') + 1
	sentinel := errors.New("stop here")
	calls := 0
	n, err := ScanJournal(data, func(string, json.RawMessage) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n != first {
		t.Fatalf("offset %d, want the second record's start %d", n, first)
	}
}
