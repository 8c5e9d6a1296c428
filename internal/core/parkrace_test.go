package core

import (
	"sync"
	"testing"
	"time"

	"mrts/internal/comm"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

// waitQuiescenceOrFail fails the test if the cluster does not reach global
// termination: a message parked with no path to delivery holds the work
// counter forever, which is exactly the wedge these tests guard against.
func waitQuiescenceOrFail(t *testing.T, rts ...*Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { WaitQuiescence(rts...); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("quiescence never reached: a parked message is holding the work counter")
	}
}

// TestPostBeforeCreateDelivers posts to a pointer the peer has not minted
// yet — legal whenever a shared placement lets nodes predict each other's
// pointers, and exactly what happens when one node starts a phase while a
// peer is still creating its blocks. The message parks at the home node;
// CreateObject must adopt it or termination never fires.
func TestPostBeforeCreateDelivers(t *testing.T) {
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	target := MobilePtr{Home: 1, Seq: 1}
	c.rts[0].Post(target, hInc, nil)
	time.Sleep(100 * time.Millisecond) // let the message arrive and park
	if ptr := c.rts[1].CreateObject(&testObj{}); ptr != target {
		t.Fatalf("minted %v, want %v", ptr, target)
	}
	waitQuiescenceOrFail(t, c.rts...)
	got := make(chan int64, 1)
	c.rts[1].Register(98, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
	c.rts[1].Post(target, 98, nil)
	if v := <-got; v != 1 {
		t.Fatalf("Count = %d, want 1 (parked message lost)", v)
	}
}

// TestPostBeforeRestoreDelivers is the rejoin version of the same race: a
// peer posts to a checkpointed object while its node is back up but has not
// restored yet. The message parks; Restore must adopt it into the restored
// object's queue.
func TestPostBeforeRestoreDelivers(t *testing.T) {
	// A throwaway incarnation of node 1 creates the object and checkpoints.
	ck := storage.NewMem()
	tr := comm.NewInProc(2, comm.LatencyModel{})
	pool := sched.NewWorkStealing(2)
	rtOld := NewRuntime(Config{
		Endpoint: tr.Endpoint(1),
		Pool:     pool,
		Factory:  testFactory,
		Mem:      ooc.Config{Budget: 1 << 20},
		Store:    storage.NewMem(),
	})
	target := rtOld.CreateObject(&testObj{Count: 7})
	if err := rtOld.Checkpoint(ck, "ck"); err != nil {
		t.Fatal(err)
	}
	if err := rtOld.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	tr.Close()

	// The relaunched cluster: node 1 is up (joined, routing) but empty.
	c := newCluster(t, 2, 1<<20)
	registerInc(c)
	c.rts[0].Post(target, hInc, nil)
	time.Sleep(100 * time.Millisecond) // let the message arrive and park
	if err := c.rts[1].Restore(ck, "ck"); err != nil {
		t.Fatal(err)
	}
	waitQuiescenceOrFail(t, c.rts...)
	got := make(chan int64, 1)
	c.rts[1].Register(98, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
	c.rts[1].Post(target, 98, nil)
	if v := <-got; v != 8 {
		t.Fatalf("Count = %d, want 8 (checkpointed 7 + parked increment)", v)
	}
}

// hookLocator runs onNote before passing each Note to the wrapped locator.
type hookLocator struct {
	Locator
	onNote func(ptr MobilePtr, at NodeID)
}

func (h *hookLocator) Note(ptr MobilePtr, at NodeID) {
	h.onNote(ptr, at)
	h.Locator.Note(ptr, at)
}

// TestPostDuringMigrationDelivers replays a post that races the migration
// of its target. The post runs at the moment Migrate tells the locator where
// the object went, before the locator records it. It must still reach the
// object: had the record already left the object table, the post would find
// neither the object nor its new location and park on the object's home
// node for good.
func TestPostDuringMigrationDelivers(t *testing.T) {
	tr := comm.NewInProc(2, comm.LatencyModel{})
	hook := &hookLocator{Locator: NewPolicyLocator(DirLazy, 0, 2)}
	rts := make([]*Runtime, 2)
	pools := make([]sched.Pool, 2)
	for i := range rts {
		pools[i] = sched.NewWorkStealing(2)
		cfg := Config{
			Endpoint: tr.Endpoint(comm.NodeID(i)),
			Pool:     pools[i],
			Factory:  testFactory,
			Mem:      ooc.Config{Budget: 1 << 20},
			Store:    storage.NewMem(),
		}
		if i == 0 {
			cfg.Locator = hook
		}
		rts[i] = NewRuntime(cfg)
		rts[i].Register(hInc, func(ctx *Ctx, arg []byte) { ctx.Object().(*testObj).Count++ })
	}
	t.Cleanup(func() {
		for i, rt := range rts {
			rt.Close()
			pools[i].Close()
		}
		tr.Close()
	})
	p := rts[0].CreateObject(&testObj{})

	posted := make(chan struct{})
	var once sync.Once
	hook.onNote = func(ptr MobilePtr, at NodeID) {
		if ptr != p || at != 1 {
			return
		}
		once.Do(func() {
			go func() {
				rts[0].Post(p, hInc, nil)
				close(posted)
			}()
			// Give the post its chance to route before the locator learns
			// the destination. It may instead wait on the migrating record
			// until Migrate lets go of it.
			select {
			case <-posted:
			case <-time.After(100 * time.Millisecond):
			}
		})
	}
	if err := rts[0].Migrate(p, 1); err != nil {
		t.Fatal(err)
	}
	<-posted
	waitQuiescenceOrFail(t, rts...)

	got := make(chan int64, 1)
	rts[1].Register(hSnapReport, func(ctx *Ctx, arg []byte) { got <- ctx.Object().(*testObj).Count })
	rts[0].Post(p, hSnapReport, nil)
	waitQuiescenceOrFail(t, rts...)
	if c := <-got; c != 1 {
		t.Fatalf("Count = %d on node 1, want 1", c)
	}
}
