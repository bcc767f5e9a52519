package ledger

import (
	"errors"
	"fmt"

	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/types"
)

// ErrChainBroken is returned when a block does not extend the chain.
var ErrChainBroken = errors.New("ledger: block does not extend chain")

// BlockStore is an append-only, hash-chained block ledger. Every node
// maintains one; experiments compare stores across correct nodes to validate
// the paper's safety guarantee.
type BlockStore struct {
	blocks []*types.Block
	last   crypto.Digest
}

// NewBlockStore returns an empty chain. The genesis predecessor digest is
// the zero digest.
func NewBlockStore() *BlockStore { return &BlockStore{} }

// Height returns the number of appended blocks.
func (bs *BlockStore) Height() uint64 { return uint64(len(bs.blocks)) }

// LastDigest returns the header digest of the most recent block (zero digest
// for an empty chain). BIDL uses it as the random seed for leader rotation
// (§4.6).
func (bs *BlockStore) LastDigest() crypto.Digest { return bs.last }

// Get returns block n (0-based), or nil if out of range.
func (bs *BlockStore) Get(n uint64) *types.Block {
	if n >= uint64(len(bs.blocks)) {
		return nil
	}
	return bs.blocks[n]
}

// Append validates that b extends the chain (consecutive number, matching
// previous digest) and appends it.
func (bs *BlockStore) Append(b *types.Block) error {
	if b.Number != bs.Height() {
		return fmt.Errorf("%w: number %d, height %d", ErrChainBroken, b.Number, bs.Height())
	}
	if b.Prev != bs.last {
		return fmt.Errorf("%w: prev digest mismatch at block %d", ErrChainBroken, b.Number)
	}
	bs.blocks = append(bs.blocks, b)
	bs.last = b.HeaderDigest()
	return nil
}

// HeaderDigests hashes every stored block's header. The hashes are taken
// now, not remembered from Append, so a block mutated after it was appended
// shows up in an audit.
func (bs *BlockStore) HeaderDigests() []crypto.Digest {
	out := make([]crypto.Digest, len(bs.blocks))
	for i, b := range bs.blocks {
		out[i] = b.HeaderDigest()
	}
	return out
}

// CommonPrefixEqual reports whether the shorter of this chain and the chain
// whose header digests are ref is a prefix of the longer one — the safety
// property that holds even while nodes are at different heights. Every
// compared block of this chain is hashed afresh.
func (bs *BlockStore) CommonPrefixEqual(ref []crypto.Digest) bool {
	n := min(len(bs.blocks), len(ref))
	for i := 0; i < n; i++ {
		if bs.blocks[i].HeaderDigest() != ref[i] {
			return false
		}
	}
	return true
}
