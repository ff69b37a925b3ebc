package proto

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The checked-in seed corpus under testdata/fuzz/<Target>/ gives CI's
// fixed-time fuzz runs coverage of every frame kind — including the
// temporal ones — from the first input, instead of rediscovering the
// format from zero each run. Go's fuzzer loads these files automatically
// as seed inputs for `go test` and `-fuzz` alike.
//
// Regenerate after protocol changes with:
//
//	go test ./internal/proto -run TestSeedCorpus -regen-corpus
//
// and commit the result; TestSeedCorpusIsFreshAndValid fails if the
// checked-in files drift from what the current builders produce.

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite testdata/fuzz seed corpus files")

// corpusEntry encodes one seed in the Go fuzz corpus file format.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// decodeCorpusEntry parses the single-[]byte corpus file format back.
func decodeCorpusEntry(content []byte) ([]byte, error) {
	lines := strings.Split(strings.TrimSuffix(string(content), "\n"), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a v1 single-value corpus file")
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok {
		return nil, fmt.Errorf("corpus value is not a []byte literal")
	}
	quoted, ok = strings.CutSuffix(quoted, ")")
	if !ok {
		return nil, fmt.Errorf("corpus value is not a []byte literal")
	}
	s, err := strconv.Unquote(quoted)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// frames builds one frame stream from (kind, body) pairs.
func frames(t *testing.T, pairs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < len(pairs); i += 2 {
		if err := w.WriteFrame(pairs[i].(byte), pairs[i+1].([]byte)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedCorpus enumerates every seed file the corpus should hold, keyed by
// target and name. Bodies cover every frame kind of protocol version 4,
// including the session-bearing Hello/Welcome handshake and the
// fixed-width batch record at both narrow and 8-byte widths.
func seedCorpus(t *testing.T) map[string]map[string][]byte {
	t.Helper()
	insert, err := AppendInsert(nil, 3, []uint64{1, 1 << 40}, []uint64{2, 1<<64 - 1}, []uint64{1, 9})
	if err != nil {
		t.Fatal(err)
	}
	insertAt, err := AppendInsertAt(nil, 4, 1_700_000_000_000_000_000, []uint64{7, 8}, []uint64{9, 10}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	emptyInsert, err := AppendInsert(nil, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := AppendWindowSummary(nil, WindowSummary{Sub: 5, Level: 1, Start: 1e18, End: 2e18, Entries: 3, Sources: 2, Destinations: 3, Packets: 44})
	exReq := mustQuery(t, KindExplain, Query{Seq: 20, Op: KindRangeTopK, Axis: AxisSources, K: 5, T0: 1e18, T1: 2e18})
	exResp := AppendExplainResp(nil, 21, Explain{Op: KindRangeTopK, TotalNanos: 5e6, CacheHits: 3, CacheMisses: 1,
		Legs:      []ExplainLeg{{Level: 1, Start: 1e18, End: 1e18 + 1e9, Shards: 2, DurNanos: 1e6}},
		Uncovered: []ExplainSpan{{Start: 15e17, End: 16e17}}})
	return map[string]map[string][]byte{
		"FuzzReaderNext": {
			"handshake": frames(t, KindHello, AppendHello(nil, "seed-session", 41),
				KindWelcome, AppendWelcome(nil, Welcome{Version: Version, Dim: 1 << 32, Shards: 4, Durable: true, Window: 1e9, LastSeq: 41, HighSeq: 44})),
			// An anonymous Hello and the refusal a server answers it with.
			"handshake-anon": frames(t, KindHello, AppendHello(nil, "", 0),
				KindError, AppendError(nil, 0, ErrCodeMalformed, "empty session id")),
			"ingest": frames(t, KindInsert, insert, KindInsertAt, insertAt,
				KindFlush, AppendSeq(nil, 5), KindCheckpoint, AppendSeq(nil, 6), KindGoodbye, AppendSeq(nil, 7)),
			"queries": frames(t, KindLookup, mustQuery(t, KindLookup, Query{Seq: 8, Src: 11, Dst: 13}),
				KindTopK, mustQuery(t, KindTopK, Query{Seq: 9, Axis: AxisDestinations, K: 10}),
				KindSummary, mustQuery(t, KindSummary, Query{Seq: 10})),
			"temporal": frames(t, KindRangeLookup, mustQuery(t, KindRangeLookup, Query{Seq: 11, Src: 1, Dst: 2, T0: 1e18, T1: 2e18}),
				KindRangeTopK, mustQuery(t, KindRangeTopK, Query{Seq: 12, Axis: AxisSources, K: 10, T0: 1e18, T1: 2e18}),
				KindRangeSummary, mustQuery(t, KindRangeSummary, Query{Seq: 13, T0: 1e18, T1: 2e18}),
				KindSubscribe, AppendSubscribe(nil, 14, SubscribeAllLevels)),
			"explain": frames(t, KindExplain, exReq, KindExplainResp, exResp),
			"responses": frames(t, KindAck, AppendSeq(nil, 15),
				KindLookupResp, AppendLookupResp(nil, 16, true, 99),
				KindTopKResp, AppendTopKResp(nil, 17, []Ranked{{1, 2}, {3, 4}}),
				KindSummaryResp, AppendSummaryResp(nil, 18, Summary{Entries: 10, TotalPackets: 55}),
				KindWindowSummary, ws,
				KindError, AppendError(nil, 19, ErrCodeOverload, "overloaded")),
		},
		"FuzzParseInsert": {
			"small": insert,
		},
		"FuzzParseInsertAt": {
			"small": insertAt,
		},
		"FuzzBatchRecordPooledRoundtrip": {
			"small":     insert,
			"empty":     emptyInsert,
			"truncated": insert[:4],
		},
		"FuzzParseHello": {
			"session":   AppendHello(nil, "seed-session", 41),
			"anonymous": AppendHello(nil, "", 0), // refused: every connection is a session
			"truncated": AppendHello(nil, "seed-session", 41)[:7],
		},
		"FuzzParseBodies": {
			"hello":         AppendHello(nil, "seed-session", 41),
			"welcome":       AppendWelcome(nil, Welcome{Version: Version, Dim: 1 << 24, Shards: 2, Window: 1e9, LastSeq: 41, HighSeq: 44}),
			"lookup":        mustQuery(t, KindLookup, Query{Seq: 1, Src: 2, Dst: 3}),
			"lookupresp":    AppendLookupResp(nil, 1, true, 300),
			"topk":          mustQuery(t, KindTopK, Query{Seq: 1, Axis: AxisSources, K: 5}),
			"topkresp":      AppendTopKResp(nil, 1, []Ranked{{1, 100}}),
			"summaryresp":   AppendSummaryResp(nil, 1, Summary{Entries: 7, Sources: 2, Destinations: 3}),
			"error":         AppendError(nil, 1, ErrCodeRejected, "nope"),
			"rangelookup":   mustQuery(t, KindRangeLookup, Query{Seq: 1, Src: 2, Dst: 3, T0: 1e18, T1: 2e18}),
			"rangetopk":     mustQuery(t, KindRangeTopK, Query{Seq: 1, Axis: AxisDestinations, K: 10, T0: 1e18, T1: 2e18}),
			"rangesummary":  mustQuery(t, KindRangeSummary, Query{Seq: 1, T0: 1e18, T1: 2e18}),
			"subscribe":     AppendSubscribe(nil, 1, 0),
			"windowsummary": ws,
			"explain":       exReq,
			"explainresp":   exResp,
		},
	}
}

// TestSeedCorpusIsFreshAndValid regenerates the corpus with -regen-corpus
// and otherwise verifies the checked-in files byte-match what the current
// builders produce (so corpus and protocol can never drift apart), that
// every FuzzReaderNext seed decodes as a clean frame stream, and that all
// of version 4's frame kinds — the temporal and Explain ones included —
// appear in the reader corpus.
func TestSeedCorpusIsFreshAndValid(t *testing.T) {
	want := seedCorpus(t)
	if *regenCorpus {
		for target, files := range want {
			dir := filepath.Join("testdata", "fuzz", target)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, "seed-"+name), corpusEntry(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	kinds := map[byte]bool{}
	for target, files := range want {
		for name, data := range files {
			path := filepath.Join("testdata", "fuzz", target, "seed-"+name)
			content, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with -regen-corpus)", path, err)
			}
			got, err := decodeCorpusEntry(content)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: checked-in seed differs from the current builder output (regenerate with -regen-corpus)", path)
			}
			if target != "FuzzReaderNext" {
				continue
			}
			r := NewReader(bytes.NewReader(got))
			for {
				f, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("%s (%s): seed stream not cleanly framed: %v", path, name, err)
				}
				kinds[f.Kind] = true
			}
		}
	}
	for _, kind := range []byte{
		KindHello, KindInsert, KindFlush, KindCheckpoint, KindLookup, KindTopK,
		KindSummary, KindGoodbye, KindInsertAt, KindRangeLookup, KindRangeTopK,
		KindRangeSummary, KindSubscribe, KindWelcome, KindAck, KindLookupResp,
		KindTopKResp, KindSummaryResp, KindError, KindWindowSummary,
		KindExplain, KindExplainResp,
	} {
		if !kinds[kind] {
			t.Fatalf("no FuzzReaderNext seed covers frame kind %#x", kind)
		}
	}
}
