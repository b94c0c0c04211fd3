package offload

// Protocol-v6 coverage: the binary codec on its own (round trips, the one
// encoding per query, hostile input via FuzzV6Frame), the server's handling
// of hostile frames on a live connection, the v5-versus-v6 bit-identity
// oracle, the wiretap's decoding of v6 traffic, and the per-layer
// microbenchmarks (codec alone, and a client–server round trip over
// net.Pipe).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"privehd/internal/dp"
	"privehd/internal/hdc"
	"privehd/internal/hrand"
	"privehd/internal/quant"
	"privehd/internal/registry"
)

// rawV6 performs a hand-rolled v6 handshake and returns the conn and the
// reader its replies arrive on — for tests that write binary frames
// directly.
func rawV6(t *testing.T, addr string, hello Hello) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	var buf bytes.Buffer
	buf.Write([]byte{'P', 'H', 'D', ProtocolVersion})
	if err := gob.NewEncoder(&buf).Encode(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var sh ServerHello
	if err := gob.NewDecoder(br).Decode(&sh); err != nil {
		t.Fatal(err)
	}
	if sh.Code != "" || sh.Version != ProtocolVersion {
		t.Fatalf("v6 handshake answered %+v", sh)
	}
	return conn, br
}

// classifyFrameBytes encodes one classification frame of prepared queries.
func classifyFrameBytes(id uint64, queries ...[]float64) []byte {
	b := appendRequestHeader(nil, &Request{ID: id}, len(queries))
	for _, q := range queries {
		b = appendFloatQuery(b, q)
	}
	finishFrame(b)
	return b
}

// readRawReply reads one reply frame and decodes it.
func readRawReply(t *testing.T, br *bufio.Reader) Reply {
	t.Helper()
	rr := replyReader{r: br, maxBody: 1 << 24}
	kind, flags, id, body, _, err := rr.next()
	if err != nil {
		t.Fatal(err)
	}
	var p pending
	if err := decodeReply(kind, flags, body, &p); err != nil {
		t.Fatal(err)
	}
	p.reply.ID = id
	p.reply.GoAway = flags&repGoAway != 0
	return p.reply
}

func TestV6PackedQueryIs2Bits(t *testing.T) {
	// A quantized D=2048 query costs 2 bits per symbol: 512 payload bytes
	// plus the fixed headers.
	q := make([]float64, 2048)
	for i := range q {
		q[i] = float64(i%4) - 2
	}
	b := classifyFrameBytes(1, q)
	if want := frameHeaderLen + 4 + queryHeaderLen + 512; len(b) != want {
		t.Fatalf("frame is %d bytes, want %d", len(b), want)
	}
	if b[frameHeaderLen+4] != formPacked2 {
		t.Fatalf("quantized query travelled in form %d", b[frameHeaderLen+4])
	}
	// One fractional value sends the whole query full-precision.
	q[7] = 0.5
	if b := classifyFrameBytes(1, q); b[frameHeaderLen+4] != formFloat64 || len(b) != frameHeaderLen+4+queryHeaderLen+8*2048 {
		t.Fatalf("fractional query: form %d, %d bytes", b[frameHeaderLen+4], len(b))
	}
}

func TestV6RequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 2, 3, 4, 5, 10, 2047, 2048} {
		packed := make([]float64, dim)
		vector := make([]float64, dim)
		for i := range packed {
			packed[i] = float64(rng.Intn(4) - 2)
			vector[i] = rng.NormFloat64()
		}
		req := Request{ID: 42, Op: OpPartialScores, Trace: 0xfeed, BudgetNs: 12345}
		b := appendRequestHeader(nil, &req, 2)
		b = appendFloatQuery(b, packed)
		b = appendFloatQuery(b, vector)
		finishFrame(b)
		var f frame
		if err := readRequest(bytes.NewReader(b), requestLimits(dim, 2), &f); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if f.refusal.Code != "" {
			t.Fatalf("dim %d: refused %+v", dim, f.refusal)
		}
		got := f.req
		if got.ID != 42 || got.Op != OpPartialScores || got.Trace != 0xfeed || got.BudgetNs != 12345 || len(got.Queries) != 2 {
			t.Fatalf("dim %d: header decoded as %+v", dim, got)
		}
		for i, s := range got.Queries[0].Packed {
			if float64(s) != packed[i] {
				t.Fatalf("dim %d: symbol %d = %d, want %v", dim, i, s, packed[i])
			}
		}
		for i, v := range got.Queries[1].Vector {
			if math.Float64bits(v) != math.Float64bits(vector[i]) {
				t.Fatalf("dim %d: vector %d = %v, want %v", dim, i, v, vector[i])
			}
		}
	}
}

func TestV6ReplyRoundTrip(t *testing.T) {
	replies := []Reply{
		{ID: 3, Results: []Result{{Label: 1, Scores: []float64{-0.5, math.Inf(1), math.NaN()}}}},
		{ID: 4, Results: []Result{{Label: 0, Scores: []float64{1, 2}}, {Label: 1, Scores: []float64{3, 4}}},
			Timing: &StageTiming{QueueNs: 1, ScoreNs: 2, TotalNs: 3}},
		{ID: 5, Partials: [][]int64{{-7, 1 << 40}}, NormSq: []float64{2, 3}},
		{ID: 6, Code: codeDeadline, Detail: "too late"},
		{ID: 7, Models: []ModelListing{{Name: "m", Version: 2, Dim: 4, Classes: 2, Default: true}}},
		{ID: 8},
	}
	for _, want := range replies {
		b := appendReply(nil, &want)
		got := readRawReply(t, bufio.NewReader(bytes.NewReader(b)))
		if (got.Timing == nil) != (want.Timing == nil) || got.Timing != nil && *got.Timing != *want.Timing {
			t.Errorf("timing %v, want %v", got.Timing, want.Timing)
		}
		got.Timing, want.Timing = nil, nil
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Errorf("reply round trip:\n got %+v\nwant %+v", got, want)
		}
	}
	got := readRawReply(t, bufio.NewReader(bytes.NewReader(goAwayFrame)))
	if !got.GoAway || got.ID != 0 {
		t.Errorf("GoAway frame decoded as %+v", got)
	}
}

func TestV6PadBitsMustBeZero(t *testing.T) {
	b := classifyFrameBytes(1, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	var f frame
	if err := readRequest(bytes.NewReader(b), requestLimits(10, 4), &f); err != nil || f.refusal.Code != "" {
		t.Fatalf("clean frame: %v %+v", err, f.refusal)
	}
	b[len(b)-1] |= 0x40 // a code in the first pad slot
	f = frame{}
	if err := readRequest(bytes.NewReader(b), requestLimits(10, 4), &f); err != nil || f.refusal.Code != codeSymbol {
		t.Fatalf("padded frame: err %v refusal %+v, want %s", err, f.refusal, codeSymbol)
	}
}

func TestV6TruncatedFrameIsUnexpectedEOF(t *testing.T) {
	b := classifyFrameBytes(1, []float64{1, 0, -1, -2})
	for cut := 1; cut < len(b); cut++ {
		var f frame
		err := readRequest(bytes.NewReader(b[:cut]), requestLimits(4, 4), &f)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut at %d of %d: err %v, want io.ErrUnexpectedEOF", cut, len(b), err)
		}
	}
}

// chunkedConn delivers at most one byte per Read, the worst case of a
// stream split across segments.
type chunkedConn struct{ net.Conn }

func (c chunkedConn) Read(p []byte) (int, error) { return c.Conn.Read(p[:min(len(p), 1)]) }

func TestV6ChunkedReadsAndWrites(t *testing.T) {
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(chunkedConn{raw}, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range [][]float64{{1, 1, 0, 0}, {0.25, 0, 1, 1}} {
		if _, _, err := c.Classify(context.Background(), q); err != nil {
			t.Fatalf("chunked reads: %v", err)
		}
	}

	// The server side: a frame dribbled one byte per write.
	conn, br := rawV6(t, addr, Hello{Dim: 4})
	for _, b := range classifyFrameBytes(9, []float64{0, 0, 1, 1}) {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if reply := readRawReply(t, br); reply.ID != 9 || reply.Code != "" || reply.Results[0].Label != 1 {
		t.Fatalf("dribbled frame answered %+v", reply)
	}
}

func TestV6TruncatedReplyIsTransport(t *testing.T) {
	// A server cut mid-reply (a chaos cut) must surface as ErrTransport.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		hdr := make([]byte, 4)
		var hello Hello
		if _, err := io.ReadFull(br, hdr); err != nil || gob.NewDecoder(br).Decode(&hello) != nil {
			return
		}
		gob.NewEncoder(conn).Encode(ServerHello{Version: ProtocolVersion, Dim: 4, Classes: 2, MaxBatch: 8})
		var f frame
		if readRequest(br, requestLimits(4, 8), &f) != nil {
			return
		}
		reply := appendReply(nil, &Reply{ID: f.req.ID, Results: []Result{{Label: 1, Scores: []float64{0, 1}}}})
		conn.Write(reply[:len(reply)-3])
	}()
	c, err := Dial(context.Background(), "tcp", lis.Addr().String(), Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Classify(context.Background(), []float64{1, 1, 0, 0})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("truncated reply: err %v, want ErrTransport", err)
	}
}

func TestV6ServerRefusesHostileFrames(t *testing.T) {
	const dim = 10
	addr, _, cleanup := startServer(t, packedTestModel(3, dim), WithMaxBatch(4))
	defer cleanup()
	conn, br := rawV6(t, addr, Hello{Dim: dim})
	q := make([]float64, dim)
	q[0] = 1

	expect := func(what string, frame []byte, id uint64, code string) {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		reply := readRawReply(t, br)
		if reply.ID != id || reply.Code != code {
			t.Fatalf("%s: reply id %d code %q (%s), want id %d code %q", what, reply.ID, reply.Code, reply.Detail, id, code)
		}
	}
	// Too many queries.
	expect("batch", classifyFrameBytes(1, q, q, q, q, q), 1, codeBatch)
	// A query of the wrong dim.
	expect("dim", classifyFrameBytes(2, q[:dim-1]), 2, codeDim)
	// Nonzero pad bits.
	padded := classifyFrameBytes(3, q)
	padded[len(padded)-1] |= 0x80
	expect("pad", padded, 3, codeSymbol)
	// An unknown op.
	op := classifyFrameBytes(4)
	op[4] = 0x7f
	expect("op", op, 4, codeBadOp)
	// A frame longer than the handshake geometry allows: its body is
	// skipped, not buffered, and the connection stays usable.
	lim := requestLimits(dim, 4)
	huge := appendHeader(nil, kindClassify, 0, 5)
	huge = append(huge, make([]byte, lim.maxBody+1)...)
	finishFrame(huge)
	expect("oversized", huge, 5, codeBatch)
	// A valid frame is still answered after all of that.
	expect("valid", classifyFrameBytes(6, q), 6, "")

	// A structurally malformed frame (unknown query form) ends the
	// connection instead of being guessed at.
	bad := classifyFrameBytes(7, q)
	bad[frameHeaderLen+4] = 9
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("after a malformed frame: read err %v, want EOF", err)
	}
}

func TestV6PipelinedRepliesOutOfOrder(t *testing.T) {
	// The v6 read loop pipelines exactly like v4/v5: a light frame sent
	// after a heavy one may be answered first, matched by ID.
	const dim = 2048
	addr, _, cleanup := startServer(t, bigModel(dim), WithWorkers(2))
	defer cleanup()
	q := posQuery(dim)
	heavy := make([][]float64, 200)
	for i := range heavy {
		heavy[i] = q
	}
	for attempt := 0; attempt < 5; attempt++ {
		conn, br := rawV6(t, addr, Hello{Dim: dim})
		if _, err := conn.Write(append(classifyFrameBytes(1, heavy...), classifyFrameBytes(2, q)...)); err != nil {
			t.Fatal(err)
		}
		first, second := readRawReply(t, br), readRawReply(t, br)
		byID := map[uint64]Reply{first.ID: first, second.ID: second}
		if len(byID[1].Results) != 200 || len(byID[2].Results) != 1 {
			t.Fatalf("results misrouted: id1=%d id2=%d", len(byID[1].Results), len(byID[2].Results))
		}
		if first.ID == 2 {
			return
		}
	}
	t.Error("light frame never overtook the heavy frame")
}

func TestV6ClientRefusedByV5OnlyServerTyped(t *testing.T) {
	// Servers upgrade first: a v5-only server answers the v6 header with a
	// version-mismatch rejection, which the client surfaces typed.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		var hello Hello
		if gob.NewDecoder(conn).Decode(&hello) != nil {
			return
		}
		gob.NewEncoder(conn).Encode(ServerHello{
			Code:    codeVersion,
			Detail:  fmt.Sprintf("server speaks v5 (and accepts v2–v4), client sent v%d", hdr[3]),
			Version: versionV5,
		})
	}()
	_, err = Dial(context.Background(), "tcp", lis.Addr().String(), Hello{Dim: 4})
	if !errors.Is(err, ErrVersionMismatch) || errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrVersionMismatch not wrapping ErrTransport", err)
	}
}

func TestTapSurvivesUndecodableFrame(t *testing.T) {
	// A tap that meets bytes it cannot decode stops recording, but it must
	// never stall the connection it mirrors: later writes go through.
	addr, _, cleanup := startServer(t, toyModel())
	defer cleanup()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tapped, _ := Tap(raw)
	c, err := NewClient(tapped, Hello{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Classify(context.Background(), []float64{1, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Feed the tap's decoder a frame it cannot parse, as if it had been
	// written on the connection.
	go tapped.(*tappedConn).pw.Write([]byte{0x03, 0x00, 0x00, 0x00})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Classify(ctx, []float64{0, 0, 1, 1}); err != nil {
			t.Fatalf("classify %d after the tap died: %v", i, err)
		}
	}
}

// oracleModel is an integer-valued model (what training produces from
// quantized encodings), optionally DP-noised into float classes.
func oracleModel(classes, dim int, noised bool) *hdc.Model {
	m := packedTestModel(classes, dim)
	if noised {
		if err := dp.PrivatizeModel(hrand.New(9), m, 1, dp.Params{Epsilon: 4, Delta: 1e-5}); err != nil {
			panic(err)
		}
	}
	return m
}

// oracleQueries returns every offloaded-query shape the paper produces for
// one random encoding: full precision, the four quantizers, and a masked
// quantized query.
func oracleQueries(rng *rand.Rand, dim int) map[string][]float64 {
	h := make([]float64, dim)
	for i := range h {
		h[i] = rng.NormFloat64() * 3
	}
	masked := quant.Bipolar{}.Quantize(h)
	for i := 0; i < dim; i += 3 {
		masked[i] = 0
	}
	return map[string][]float64{
		"full":           h,
		"bipolar":        quant.Bipolar{}.Quantize(h),
		"ternary":        quant.Ternary{}.Quantize(h),
		"ternary-biased": quant.BiasedTernary{}.Quantize(h),
		"2bit":           quant.TwoBit{}.Quantize(h),
		"masked":         masked,
	}
}

// v5Query is the wire form the v5 client chose: packed when the query
// packs, full-precision otherwise.
func v5Query(q []float64) Query {
	if p, ok := PackQuery(q); ok {
		return Query{Packed: p}
	}
	return Query{Vector: q}
}

func TestV6ScoresBitIdenticalToV5(t *testing.T) {
	// One server, a byte-faithful v5 gob session and a v6 client: every
	// query shape must come back with bit-identical scores, on plain and
	// DP-noised models, at dims that do and do not fill whole bytes, and
	// both must list the same models.
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{4, 10, 2048} {
		for _, noised := range []bool{false, true} {
			name := fmt.Sprintf("dim%d/noised=%v", dim, noised)
			addr, _, cleanup := startServer(t, oracleModel(5, dim, noised))
			_, enc, dec := rawHandshake(t, addr, versionV5, Hello{Dim: dim})
			c, err := Dial(context.Background(), "tcp", addr, Hello{Dim: dim})
			if err != nil {
				t.Fatal(err)
			}
			id := uint64(0)
			for trial := 0; trial < 4; trial++ {
				for shape, q := range oracleQueries(rng, dim) {
					id++
					if err := enc.Encode(Request{ID: id, Queries: []Query{v5Query(q)}}); err != nil {
						t.Fatal(err)
					}
					var old Reply
					if err := dec.Decode(&old); err != nil {
						t.Fatal(err)
					}
					label, scores, err := c.Classify(context.Background(), q)
					if err != nil || old.Code != "" {
						t.Fatalf("%s %s: v6 err %v, v5 code %q", name, shape, err, old.Code)
					}
					if label != old.Results[0].Label {
						t.Fatalf("%s %s: v6 label %d, v5 label %d", name, shape, label, old.Results[0].Label)
					}
					for l, s := range scores {
						if math.Float64bits(s) != math.Float64bits(old.Results[0].Scores[l]) {
							t.Fatalf("%s %s class %d: v6 score %v, v5 score %v", name, shape, l, s, old.Results[0].Scores[l])
						}
					}
				}
			}
			id++
			if err := enc.Encode(Request{ID: id, Op: OpListModels}); err != nil {
				t.Fatal(err)
			}
			var old Reply
			if err := dec.Decode(&old); err != nil || old.Code != "" || old.ID != id {
				t.Fatalf("%s: v5 list-models: %v, reply %+v", name, err, old)
			}
			models, err := c.ListModels(context.Background())
			if err != nil {
				t.Fatalf("%s: v6 list-models: %v", name, err)
			}
			if len(models) != 1 || models[0].Name != DefaultModelName || models[0].Dim != dim {
				t.Errorf("%s: v6 listing %+v", name, models)
			}
			if !reflect.DeepEqual(models, old.Models) {
				t.Errorf("%s: v6 listing %+v, v5 listing %+v", name, models, old.Models)
			}
			c.Close()
			cleanup()
		}
	}
}

func TestV6PartialScoresBitIdenticalToV5(t *testing.T) {
	// Partial scores of a dimension slice and of a class slice — the two
	// ways internal/shard splits a model — must match the v5 gob answer
	// exactly.
	const dim, classes = 2048, 6
	whole := oracleModel(classes, dim, false)
	reg := registry.New()
	slices := map[string]*registry.ShardInfo{
		"dims":    {DimOffset: 1024, DimLen: 1024, ClassOffset: 0, ClassCount: classes, FullDim: dim, FullClasses: classes},
		"classes": {DimOffset: 0, DimLen: dim, ClassOffset: 2, ClassCount: 3, FullDim: dim, FullClasses: classes},
	}
	for name, info := range slices {
		sub := whole.Slice(info.DimOffset, info.DimLen, info.ClassOffset, info.ClassCount)
		if _, err := reg.RegisterShard(name, sub, registry.EncoderInfo{}, info); err != nil {
			t.Fatal(err)
		}
	}
	addr, _, cleanup := startRegistryServer(t, reg)
	defer cleanup()
	rng := rand.New(rand.NewSource(12))
	for name, info := range slices {
		_, enc, dec := rawHandshake(t, addr, versionV5, Hello{Model: name, Dim: info.DimLen})
		c, err := Dial(context.Background(), "tcp", addr, Hello{Model: name, Dim: info.DimLen})
		if err != nil {
			t.Fatal(err)
		}
		var batch [][]int8
		for shape, q := range oracleQueries(rng, info.DimLen) {
			if p, ok := PackQuery(q); ok {
				batch = append(batch, p)
			} else if shape != "full" {
				t.Fatalf("%s query does not pack", shape)
			}
		}
		req := Request{ID: 1, Op: OpPartialScores}
		for _, p := range batch {
			req.Queries = append(req.Queries, Query{Packed: p})
		}
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var old Reply
		if err := dec.Decode(&old); err != nil || old.Code != "" {
			t.Fatalf("%s: v5 partials: %v %q", name, err, old.Code)
		}
		partials, normSq, err := c.PartialScores(context.Background(), batch)
		if err != nil {
			t.Fatalf("%s: v6 partials: %v", name, err)
		}
		if fmt.Sprint(partials) != fmt.Sprint(old.Partials) {
			t.Errorf("%s: v6 partials %v, v5 %v", name, partials, old.Partials)
		}
		for l := range normSq {
			if math.Float64bits(normSq[l]) != math.Float64bits(old.NormSq[l]) {
				t.Errorf("%s: normSq[%d] v6 %v, v5 %v", name, l, normSq[l], old.NormSq[l])
			}
		}
		c.Close()
	}
}

// FuzzV6Frame feeds arbitrary bytes to the server's request decoder. It
// must never panic, and never allocate past what the handshake bound and
// the frame's own length justify.
func FuzzV6Frame(f *testing.F) {
	const dim, maxBatch = 10, 4
	q := []float64{1, 0, -1, -2, 1, 0, -1, -2, 1, 0}
	f.Add(classifyFrameBytes(1, q))
	f.Add(classifyFrameBytes(2, q, []float64{0.5, 0, 0, 0, 0, 0, 0, 0, 0, 1}))
	f.Add(appendRequestHeader(nil, &Request{ID: 3, Op: OpPing, Trace: 1, BudgetNs: 2}, 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0})
	lim := requestLimits(dim, maxBatch)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			var fr frame
			if err := readRequest(r, lim, &fr); err != nil {
				return
			}
			if len(fr.raw) > lim.maxBody || cap(fr.raw) > lim.maxBody {
				t.Fatalf("buffered %d body bytes, bound %d", cap(fr.raw), lim.maxBody)
			}
			if cap(fr.syms) > 4*len(fr.raw) || 8*cap(fr.vecs) > len(fr.raw) || cap(fr.queries) > maxBatch {
				t.Fatalf("decoder allocated %d symbols, %d floats, %d queries for a %d-byte body",
					cap(fr.syms), cap(fr.vecs), cap(fr.queries), len(fr.raw))
			}
			if fr.refusal.Code != "" {
				continue
			}
			for _, q := range fr.req.Queries {
				if n := len(q.Packed) + len(q.Vector); n != dim {
					t.Fatalf("accepted a query of dim %d", n)
				}
				for _, s := range q.Packed {
					if s < MinSymbol || s > MaxSymbol {
						t.Fatalf("decoded symbol %d outside the alphabet", s)
					}
				}
			}
		}
	})
}

// codecQueries is the benchmark workload: a quantized D=2048 query against
// 26 classes (isolet's label space).
func codecQueries() ([]float64, Reply) {
	q := make([]float64, 2048)
	for i := range q {
		q[i] = float64(i%4) - 2
	}
	scores := make([]float64, 26)
	for i := range scores {
		scores[i] = float64(i) / 7
	}
	return q, Reply{ID: 1, Results: []Result{{Label: 3, Scores: scores}}}
}

// BenchmarkFrameCodec times one prediction's codec work on each side of the
// wire: the client packs and frames the request, the server decodes it and
// frames the reply, the client decodes the reply.
func BenchmarkFrameCodec(b *testing.B) {
	q, reply := codecQueries()
	lim := requestLimits(len(q), DefaultMaxBatch)
	var reqBuf, repBuf []byte
	f := new(frame)
	p := new(pending)
	br := bufio.NewReaderSize(nil, 1<<16)
	rr := replyReader{r: br, maxBody: 1 << 20}
	var src bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf = appendRequestHeader(reqBuf[:0], &Request{ID: 1}, 1)
		reqBuf = appendFloatQuery(reqBuf, q)
		finishFrame(reqBuf)

		src.Reset(reqBuf)
		if err := readRequest(&src, lim, f); err != nil || f.refusal.Code != "" {
			b.Fatal(err, f.refusal)
		}
		repBuf = appendReply(repBuf[:0], &reply)

		src.Reset(repBuf)
		br.Reset(&src)
		kind, flags, _, body, _, err := rr.next()
		if err != nil {
			b.Fatal(err)
		}
		p.reply = Reply{}
		if err := decodeReply(kind, flags, body, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqBuf)), "req-B")
	b.ReportMetric(float64(len(repBuf)), "reply-B")
}

// BenchmarkPipeRoundTrip is one Classify from an offload client to a server
// over an in-memory net.Pipe: codec, pipelining machinery and scoring,
// without the kernel's socket path.
func BenchmarkPipeRoundTrip(b *testing.B) {
	const dim = 2048
	s := NewServer(packedTestModel(26, dim))
	defer s.Close()
	s.startPool()
	cliConn, sConn := net.Pipe()
	go s.handle(&srvConn{conn: sConn})
	c, err := NewClient(cliConn, Hello{Dim: dim})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q, _ := codecQueries()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Classify(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}
