package main

import (
	"fmt"

	"cab"
)

// The forkjoin workload is fib(fibN) as a fork-join tree that spawns down
// to fibCutoff and recurses serially below it: the paper's Fib class. It
// is the program on which two workers barely beat one, a steal-path
// scaling defect this workload must keep showing, so its size and grain
// stay fixed. The seed decides, per tree node, which child is
// spawned first and, per leaf, the weight the leaf adds to the checksum, so
// a lost or duplicated task changes the result.
const (
	fibN      = 30
	fibCutoff = 12
)

type fibTree struct {
	seed uint64
}

// mix derives a node's pseudo-random bits from the seed and its path id.
func (f fibTree) mix(id uint64) uint64 {
	return splitmix(f.seed ^ id*0x9e3779b97f4a7c15)
}

// serialFib is the leaf computation: exponential-time recursion, so leaves
// cost real CPU and the fork-join overhead sits on top of it.
func serialFib(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return serialFib(n-1) + serialFib(n-2)
}

// leaf is one leaf's checksum contribution.
func (f fibTree) leaf(n int, id uint64) uint64 {
	return serialFib(n) * (f.mix(id) | 1)
}

// task returns the task body computing node (n, id) into dst.
func (f fibTree) task(n int, id uint64, dst *uint64) cab.TaskFunc {
	return func(t cab.Task) {
		if n < fibCutoff {
			*dst = f.leaf(n, id)
			return
		}
		var a, b uint64
		left, right := f.task(n-1, 2*id, &a), f.task(n-2, 2*id+1, &b)
		if f.mix(id)&1 == 1 {
			left, right = right, left
		}
		t.Spawn(left)
		t.Spawn(right)
		t.Sync()
		*dst = a + b
	}
}

// reference walks the same tree with plain recursion, independently of
// the scheduler and of work.Serial.
func (f fibTree) reference(n int, id uint64) uint64 {
	if n < fibCutoff {
		return f.leaf(n, id)
	}
	return f.reference(n-1, 2*id) + f.reference(n-2, 2*id+1)
}

// forkjoin is the in-process workload running fibTree through cab.Run on
// the detected machine (BL 0).
type forkjoin struct {
	tree fibTree
	want uint64
	got  uint64
}

func newForkjoin(seed uint64) (*forkjoin, cab.Config) {
	return &forkjoin{tree: fibTree{seed: seed}}, cab.Config{Machine: cab.DetectMachine(), Seed: seed}
}

func (w *forkjoin) setReference() { w.want = w.tree.reference(fibN, 1) }

func (w *forkjoin) prepare() { w.got = 0 }

func (w *forkjoin) root() cab.TaskFunc { return w.tree.task(fibN, 1, &w.got) }

func (w *forkjoin) check() error {
	if w.got != w.want {
		return fmt.Errorf("forkjoin checksum %#x, want %#x", w.got, w.want)
	}
	return nil
}
