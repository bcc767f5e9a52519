package core

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// mkVector builds a properly signed single-org result vector for tx at seq
// with the given write value — the §4.4 scenario where a malicious
// organization produces alternative approved vectors for its own
// transaction.
func mkVector(t *testing.T, c *Cluster, seq uint64, tx *types.Transaction, val string) ResultEntry {
	t.Helper()
	org := tx.CorrespondingOrg()
	writes := []ledger.Write{{Key: "k", Val: []byte(val)}}
	dig := (&ledger.RWSet{Writes: writes}).Digest()
	sig, err := c.Scheme.Sign(crypto.Identity(org), orgResultBytes(seq, tx.ID(), org, dig, false, false))
	if err != nil {
		t.Fatal(err)
	}
	return ResultEntry{
		Seq: seq, TxID: tx.ID(),
		Vector: []OrgResult{{Org: org, Digest: dig, Writes: writes, Sig: sig}},
	}
}

// withCtx drives a consensus node method with an injected activation.
func cnWithCtx(c *Cluster, cn *ConsNode, fn func()) {
	cn.bind(simnet.NewInjectedContext(c.Net, cn.ep), fn)
}

func nnWithCtx(c *Cluster, nn *NormalNode, fn func()) {
	nn.bind(simnet.NewInjectedContext(c.Net, nn.ep), fn)
}

// TestLemma52LocalStoreUniqueness: a consensus node persists at most one
// result vector per sequence number (§4.4, the heart of Lemma 5.2).
func TestLemma52LocalStoreUniqueness(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1] // single-org: one org CAN approve two vectors
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	cn := c.ConsNodes[0]
	cnWithCtx(c, cn, func() {
		// The leader proposed (seq → tx).
		cn.Proposed(0, valueFor(seq, tx))
		a := mkVector(t, c, seq, tx, "A")
		b := mkVector(t, c, seq, tx, "B")
		cn.evaluateResult(a)
		cn.evaluateResult(b) // must be ignored: one vector per seq
		sr, ok := cn.persisted[seq]
		if !ok {
			t.Fatal("first vector not stored")
		}
		if sr.vecDigest != a.VectorDigest() {
			t.Fatal("second vector displaced the first")
		}
		if len(cn.persistOut) != 1 {
			t.Fatalf("persistOut has %d entries, want 1", len(cn.persistOut))
		}
	})
}

func valueFor(seq uint64, tx *types.Transaction) consensus.Value {
	ordering := types.EncodeOrdering([]uint64{seq}, []types.TxID{tx.ID()})
	return consensus.Value{Digest: types.OrderingDigest(ordering), Data: ordering}
}

// TestLemma52SplitVotesNeverPersist: PERSIST votes split across two vectors
// never reach the 2f+1 quorum, so neither result commits — a malicious
// organization can only hurt its own transactions' liveness (§4.4).
func TestLemma52SplitVotesNeverPersist(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1]
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	a := mkVector(t, c, seq, tx, "A")
	b := mkVector(t, c, seq, tx, "B")
	nn := c.Orgs[0][0]

	sendPersist := func(cnIdx int, e ResultEntry) {
		entry := PersistEntry{
			Seq: e.Seq, TxID: e.TxID, VecDigest: e.VectorDigest(),
			Consistent: true, ResultDigest: (&ledger.RWSet{Writes: e.Union()}).Digest(),
			Writes: e.Union(),
		}
		msg := &PersistMsg{Node: cnIdx, Entries: []PersistEntry{entry}}
		dig := persistDigest(cnIdx, msg.Entries)
		sig, err := c.Scheme.Sign(cnIdentity(cnIdx), dig[:])
		if err != nil {
			t.Fatal(err)
		}
		msg.Sig = sig
		nnWithCtx(c, nn, func() {
			nn.onPersist(c.ConsNodes[cnIdx].ep.ID(), msg)
		})
	}

	// 2 votes for A, 2 for B: quorum is 3, so neither persists.
	sendPersist(0, a)
	sendPersist(1, a)
	sendPersist(2, b)
	sendPersist(3, b)
	if ps := nn.persist[seq]; ps != nil && ps.persisted {
		t.Fatal("split votes reached persistence")
	}

	// A third distinct vote for A persists it — with A's content.
	sendPersist(2, a)
	ps := nn.persist[seq]
	if ps == nil || !ps.persisted {
		t.Fatal("2f+1 matching votes did not persist")
	}
	if string(ps.writes[0].Val) != "A" {
		t.Fatalf("persisted value %q, want A", ps.writes[0].Val)
	}
}

// TestPersistVoteDeduplication: the same consensus node voting twice counts
// once.
func TestPersistVoteDeduplication(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1]
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	const seq = uint64(9001)
	a := mkVector(t, c, seq, tx, "A")
	nn := c.Orgs[0][0]
	entry := PersistEntry{
		Seq: a.Seq, TxID: a.TxID, VecDigest: a.VectorDigest(),
		Consistent: true, ResultDigest: (&ledger.RWSet{Writes: a.Union()}).Digest(),
		Writes: a.Union(),
	}
	msg := &PersistMsg{Node: 0, Entries: []PersistEntry{entry}}
	dig := persistDigest(0, msg.Entries)
	sig, _ := c.Scheme.Sign(cnIdentity(0), dig[:])
	msg.Sig = sig
	for i := 0; i < 5; i++ {
		nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[0].ep.ID(), msg) })
	}
	if ps := nn.persist[seq]; ps != nil && ps.persisted {
		t.Fatal("one node's repeated votes reached quorum")
	}
}

// TestPersistRejectsForgedCN: a PERSIST batch with a bad signature is
// ignored entirely.
func TestPersistRejectsForgedCN(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	nn := c.Orgs[0][0]
	entry := PersistEntry{Seq: 9001, TxID: tx.ID(), Consistent: true}
	msg := &PersistMsg{Node: 0, Entries: []PersistEntry{entry}, Sig: crypto.Signature("junk")}
	nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[0].ep.ID(), msg) })
	if nn.persist[9001] != nil {
		t.Fatal("forged persist batch processed")
	}
}

// TestPersistRejectsAlteredWrites: a batch signed honestly and then altered
// in one entry's write set fails verification when the message carries no
// kept digest — receivers digest its Entries themselves.
func TestPersistRejectsAlteredWrites(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	nn := c.Orgs[0][0]
	writes := []ledger.Write{{Key: "k", Val: []byte("A")}}
	entry := PersistEntry{
		Seq: 9001, TxID: tx.ID(), Consistent: true,
		ResultDigest: (&ledger.RWSet{Writes: writes}).Digest(), Writes: writes,
	}
	msg := &PersistMsg{Node: 0, Entries: []PersistEntry{entry}}
	dig := persistDigest(0, msg.Entries)
	sig, err := c.Scheme.Sign(cnIdentity(0), dig[:])
	if err != nil {
		t.Fatal(err)
	}
	msg.Sig = sig
	if d := msg.digest(); !c.Scheme.Verify(cnIdentity(0), d[:], msg.Sig) {
		t.Fatal("honest batch does not verify")
	}
	msg.Entries[0].Writes = []ledger.Write{{Key: "k", Val: []byte("B")}}
	nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[0].ep.ID(), msg) })
	if nn.persist[9001] != nil {
		t.Fatal("batch with altered writes processed")
	}
}

// TestPersistSendersKeepDigest: both PERSIST senders — the batched echo and
// the loss-recovery re-send — keep the batch digest on the message they
// sign, so receivers MAC-check 32 bytes instead of re-encoding the batch.
func TestPersistSendersKeepDigest(t *testing.T) {
	cfg := smallConfig()
	c, gen := buildCluster(t, cfg, defaultWorkload())
	tx := gen.Next()
	tx.Orgs = tx.Orgs[:1]
	if err := tx.Sign(c.Scheme); err != nil {
		t.Fatal(err)
	}
	var sent []*PersistMsg
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		if pm, ok := msg.(*PersistMsg); ok && (len(sent) == 0 || sent[len(sent)-1] != pm) {
			sent = append(sent, pm)
		}
		return false
	}
	const seq = uint64(9001)
	cn := c.ConsNodes[0]
	cnWithCtx(c, cn, func() {
		cn.Proposed(0, valueFor(seq, tx))
		cn.evaluateResult(mkVector(t, c, seq, tx, "A"))
		cn.flushPersist()
		cn.onPersistFetch(c.Orgs[0][0].ep.ID(), &PersistFetchReq{Seqs: []uint64{seq}})
	})
	if len(sent) != 2 {
		t.Fatalf("captured %d persist messages, want 2 (flush, fetch reply)", len(sent))
	}
	for i, m := range sent {
		if !m.digOK || m.dig != persistDigest(m.Node, m.Entries) {
			t.Fatalf("message %d: kept digest %x (ok=%v), want persistDigest of its entries", i, m.dig, m.digOK)
		}
		if !c.Scheme.Verify(cnIdentity(m.Node), m.dig[:], m.Sig) {
			t.Fatalf("message %d: signature does not cover the kept digest", i)
		}
	}
}
