// Command tunedb inspects and maintains a persistent tuning database
// (the -db directory of cmd/autotune).
//
// Usage:
//
//	tunedb -db DIR ls                 # list stored keys with eval/front counts
//	tunedb -db DIR show KEYPREFIX     # print the stored front for a key
//	tunedb -db DIR compact            # merge segments, dropping dead records
//	tunedb -db DIR merge OTHERDIR     # adopt records from another database
//	tunedb -db DIR export KEYPREFIX   # write the stored front as JSON to stdout
//	tunedb -db DIR stats              # storage-engine state per shard
//	tunedb -db DIR scan PGPREFIX      # list keys matching a program prefix
//	tunedb -db DIR fsck               # offline integrity check (exit 1 on corruption)
//
// KEYPREFIX matches any stored key whose canonical string starts with
// it; an ambiguous prefix is an error, so a unique fingerprint prefix
// suffices.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autotune/internal/export"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

func main() {
	dir := flag.String("db", "", "tuning database directory (required)")
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tunedb -db DIR {ls|show KEY|compact|merge OTHERDIR|export KEY|stats|scan PREFIX|fsck}")
		os.Exit(2)
	}
	if err := run(*dir, flag.Arg(0), flag.Args()[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tunedb:", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand against the database at dir. It is
// separate from main so the CLI surface is testable without a process
// boundary.
func run(dir, cmd string, args []string, stdout, stderr io.Writer) error {
	if cmd == "fsck" {
		// Dispatched before Open on purpose: fsck must work on stores
		// too corrupt to open (and must not repair anything — open
		// truncates torn WAL tails; fsck only reports them).
		return fsck(dir, stdout)
	}
	db, err := tunedb.Open(dir)
	if err != nil {
		return err
	}
	defer db.Close()

	switch cmd {
	case "ls":
		return ls(db, stdout)
	case "show":
		rec, err := resolveFront(db, args, stderr)
		if err != nil {
			return err
		}
		printFront(rec, stdout)
		return nil
	case "compact":
		if err := db.Compact(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "database compacted")
		return nil
	case "stats":
		return stats(db, stdout)
	case "scan":
		prefix := ""
		if len(args) > 0 {
			prefix = args[0]
		}
		return scan(db, prefix, stdout)
	case "merge":
		if len(args) != 1 {
			return fmt.Errorf("merge wants exactly one source directory")
		}
		evals, fronts, err := db.Merge(args[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "merged %d evaluations and %d fronts from %s\n", evals, fronts, args[0])
		return nil
	case "export":
		rec, err := resolveFront(db, args, stderr)
		if err != nil {
			return err
		}
		front := make([]pareto.Point, len(rec.Points))
		for i, p := range rec.Points {
			front[i] = pareto.Point{
				Payload:    skeleton.Config(p.Config),
				Objectives: p.Objectives,
			}
		}
		return export.FrontJSON(stdout, front, rec.ObjectiveNames)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// fsck verifies every shard's WAL frames, segment checksums, sort
// order, bloom filters and sparse indexes offline, printing a
// per-shard verdict. Corruption returns an error (exit 1); benign
// crash leftovers (torn WAL tails, temp files) are warnings.
func fsck(dir string, w io.Writer) error {
	rep, err := tunedb.Fsck(dir)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.String())
	if !rep.OK() {
		return fmt.Errorf("fsck: corruption detected in %s", dir)
	}
	fmt.Fprintln(w, "fsck: ok")
	return nil
}

// ls prints one row per stored key. A registry it cannot read in full
// is an error, never an empty database.
func ls(db *tunedb.DB, w io.Writer) error {
	keys, err := db.ScanKeys("")
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		fmt.Fprintln(w, "database is empty")
		return nil
	}
	return printKeys(db, keys, w)
}

// printKeys prints the table ls and scan share: per key the stored
// evaluation count and the size of its front.
func printKeys(db *tunedb.DB, keys []tunedb.Key, w io.Writer) error {
	fmt.Fprintf(w, "%-20s %-30s %-16s %6s %6s\n", "fingerprint", "machine", "objectives", "evals", "front")
	for _, k := range keys {
		evals, err := db.EvalCount(k)
		if err != nil {
			return err
		}
		frontSize := 0
		if rec, ok := db.Front(k); ok {
			frontSize = len(rec.Points)
		}
		fmt.Fprintf(w, "%-20s %-30s %-16s %6d %6d\n",
			k.Fingerprint, trim(k.MachineSig, 30), k.Objectives, evals, frontSize)
	}
	return nil
}

// stats prints the storage engine's physical state: per-shard segment
// counts, live/dead record ratios and bloom-filter effectiveness.
func stats(db *tunedb.DB, w io.Writer) error {
	s, err := db.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %9s %9s %9s %9s %10s %9s\n",
		"shard", "segments", "records", "live", "dead", "disk", "bloomFPR")
	for _, ss := range s.Shards {
		if ss.Segments == 0 && ss.MemtableEntries == 0 && ss.LiveKeys == 0 {
			continue
		}
		fpr := "-"
		if ss.BloomFPREstimate > 0 {
			fpr = fmt.Sprintf("%.4f", ss.BloomFPREstimate)
		}
		fmt.Fprintf(w, "%-6d %9d %9d %9d %9d %10d %9s\n",
			ss.Shard, ss.Segments, int(ss.SegmentRecords)+ss.MemtableEntries,
			ss.LiveKeys, ss.DeadRecords, ss.DiskBytes, fpr)
	}
	live := float64(1)
	if tot := s.SegmentRecords + uint64(s.MemtableEntries); tot > 0 {
		live = float64(s.LiveKeys) / float64(tot)
	}
	fmt.Fprintf(w, "total: %d segments, %d live keys, %d dead records (%.1f%% live), %d bytes on disk\n",
		s.Segments, s.LiveKeys, s.DeadRecords, 100*live, s.DiskBytes)
	return nil
}

// scan lists every stored key whose canonical string starts with the
// given prefix (typically a program fingerprint), with record counts —
// a single-shard range scan, not a full database walk.
func scan(db *tunedb.DB, prefix string, w io.Writer) error {
	keys, err := db.ScanKeys(prefix)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		fmt.Fprintf(w, "no keys match %q\n", prefix)
		return nil
	}
	return printKeys(db, keys, w)
}

// resolveFront finds the unique stored front whose key matches the
// given prefix (or the only stored front when no prefix is given). A
// registry it cannot read in full is an error, not "no stored front".
func resolveFront(db *tunedb.DB, args []string, stderr io.Writer) (tunedb.FrontRecord, error) {
	prefix := ""
	if len(args) > 0 {
		prefix = args[0]
	}
	keys, err := db.ScanKeys(prefix)
	if err != nil {
		return tunedb.FrontRecord{}, err
	}
	var matches []tunedb.FrontRecord
	for _, k := range keys {
		if rec, ok := db.Front(k); ok {
			matches = append(matches, rec)
		}
	}
	switch len(matches) {
	case 0:
		return tunedb.FrontRecord{}, fmt.Errorf("no stored front matches %q", prefix)
	case 1:
		return matches[0], nil
	default:
		for _, m := range matches {
			fmt.Fprintln(stderr, "  "+m.Key.String())
		}
		return tunedb.FrontRecord{}, fmt.Errorf("%q is ambiguous (%d matches)", prefix, len(matches))
	}
}

func printFront(rec tunedb.FrontRecord, w io.Writer) {
	fmt.Fprintf(w, "key:        %s\n", rec.Key.String())
	fmt.Fprintf(w, "machine:    %s\n", rec.Key.MachineSig)
	fmt.Fprintf(w, "objectives: %s\n", rec.Key.Objectives)
	fmt.Fprintf(w, "search:     %d evaluations, %d iterations, %d Pareto points\n",
		rec.Evaluations, rec.Iterations, len(rec.Points))
	for i, p := range rec.Points {
		fmt.Fprintf(w, "%-4d config %v  objectives %v\n", i, p.Config, p.Objectives)
	}
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
