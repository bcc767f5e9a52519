package core

import (
	"testing"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/types"
)

// TestCommitGateResumes drives a head block through its persist round one
// PERSIST echo at a time, last sequence number first. The block must
// commit on exactly the echo that brings its first entry to quorum,
// classification and execution (Steps 2-3) must run once, and an invalid
// transaction in the middle must commit aborted once the gate passes it.
func TestCommitGateResumes(t *testing.T) {
	c, gen := buildCluster(t, smallConfig(), defaultWorkload())
	nn := c.Orgs[0][0]
	seqs := []uint64{1, 2, 3, 4}
	const badSeq = 2
	var batch SeqBatch
	hashes := make([]types.TxID, len(seqs))
	for i, seq := range seqs {
		tx := gen.Next()
		tx.Orgs = []string{nn.orgName}
		if err := tx.Sign(c.Scheme); err != nil {
			t.Fatal(err)
		}
		if seq == badSeq {
			tx.Sig = append(crypto.Signature(nil), tx.Sig...)
			tx.Sig[0] ^= 1
		}
		hashes[i] = tx.ID()
		batch.Txns = append(batch.Txns, types.SequencedTx{Seq: seq, Tx: tx})
	}
	var notices []CommitEntry
	c.Net.DropFilter = func(_, _ simnet.NodeID, msg simnet.Message) bool {
		if cn, ok := msg.(*CommitNotice); ok {
			notices = append(notices, cn.Entries...)
		}
		return false
	}
	nnWithCtx(c, nn, func() { nn.onSeqBatch(&batch) })

	ordering := types.EncodeOrdering(seqs, hashes)
	cert := &types.Certificate{Number: 0, Digest: types.OrderingDigest(ordering)}
	for i := 0; i < c.Cfg.quorum(); i++ {
		cert.Sigs = append(cert.Sigs, types.NodeSig{Node: i, Sig: c.ConsNodes[i].Sign(types.CertSigningBytes(0, 0, cert.Digest))})
	}
	matched := c.Collector.SpecMatched
	nnWithCtx(c, nn, func() { nn.onBlock(&BlockMsg{Number: 0, Ordering: ordering, Cert: cert}) })
	const validRelated = 3
	if got := c.Collector.SpecMatched - matched; got != validRelated {
		t.Fatalf("block classification matched %d speculations, want %d", got, validRelated)
	}

	order := []uint64{4, 3, 1}
	for k, seq := range order {
		entry := PersistEntry{
			Seq: seq, TxID: hashes[seq-1], VecDigest: crypto.Hash([]byte{byte(seq)}),
			Consistent: true, ResultDigest: (&ledger.RWSet{}).Digest(),
		}
		for cn := 0; cn < c.Cfg.quorum(); cn++ {
			msg := &PersistMsg{Node: cn, Entries: []PersistEntry{entry}}
			msg.seal(c.ConsNodes[cn].Sign)
			nnWithCtx(c, nn, func() { nn.onPersist(c.ConsNodes[cn].ep.ID(), msg) })
			last := k == len(order)-1 && cn == c.Cfg.quorum()-1
			want := uint64(0)
			if last {
				want = 1
			}
			if nn.CommitHeight() != want {
				t.Fatalf("after echo %d for seq %d: commit height %d, want %d", cn, seq, nn.CommitHeight(), want)
			}
			if !last && nn.blockBuf[0].gate != 0 {
				t.Fatalf("gate advanced to %d while seq 1 lacks quorum", nn.blockBuf[0].gate)
			}
			if got := c.Collector.SpecMatched - matched; got != validRelated {
				t.Fatalf("classification re-ran: matched %d, want %d", got, validRelated)
			}
		}
	}

	if len(notices) != len(seqs) {
		t.Fatalf("%d commit notices, want %d", len(notices), len(seqs))
	}
	for _, e := range notices {
		if want := e.TxID == hashes[badSeq-1]; e.Aborted != want {
			t.Fatalf("tx %x committed with aborted=%v, want %v", e.TxID[:4], e.Aborted, want)
		}
	}
}
