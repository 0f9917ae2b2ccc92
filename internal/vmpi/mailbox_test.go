package vmpi

import (
	"fmt"
	"testing"
)

// Regression coverage for the mailbox key leak: queues entries used to stay
// in the map forever once their (src, tag, ctx) fifo drained, so every
// retired communicator context (Split/Dup churn, resize epochs) left its
// keys behind for the life of the run.

// queueKeys returns the live key count of a rank's mailbox. Safe to call
// from the rank's own goroutine while no peer is sending to it.
func queueKeys(c *Comm) int {
	mb := c.inst(c.rank).box
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queues)
}

func TestMailboxPrunesDrainedKeys(t *testing.T) {
	onExecutor(t, func(t *testing.T) {
		Run(Config{Ranks: 2}, func(c *Comm) {
			// Churn through communicator contexts: each Dup is a fresh
			// ctx, each round sends on distinct tags.
			const rounds, tags = 8, 16
			for round := 0; round < rounds; round++ {
				d := c.Dup()
				if c.Rank() == 0 {
					for tag := 0; tag < tags; tag++ {
						Send(d, []int{round, tag}, 1, tag)
					}
				} else {
					for tag := 0; tag < tags; tag++ {
						got := Recv[int](d, 0, tag)
						if got[0] != round || got[1] != tag {
							panic(fmt.Sprintf("bad payload %v", got))
						}
					}
				}
				Barrier(c)
			}
			// Every fifo drained, so every key must be gone; without
			// pruning rank 1 would hold rounds*tags dead entries (plus
			// the collectives' keys).
			if n := queueKeys(c); n != 0 {
				panic(fmt.Sprintf("rank %d holds %d dead mailbox keys", c.Rank(), n))
			}
		})
	})
}

func TestMailboxPrunesRetiredEpochKeys(t *testing.T) {
	// A resize retires the old epoch's world context; the survivor's
	// mailbox must not keep the old epoch's collective keys around.
	Run(Config{Ranks: 4}, func(c *Comm) {
		for stage := 0; ; stage++ {
			Barrier(c)
			sizes := []int{2, 1}
			if stage == len(sizes) {
				if n := queueKeys(c); n != 0 {
					panic(fmt.Sprintf("%d dead mailbox keys survive the epochs", n))
				}
				return
			}
			if c = Resize(c, sizes[stage]); c == nil {
				return
			}
		}
	})
}
