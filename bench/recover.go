package main

import (
	"bytes"
	"context"
	"net/http"
)

// goldenQueries is how many fresh exact queries are answered before a
// kill -9 and compared byte for byte after every restart.
const goldenQueries = 16

// crashRecover answers the golden queries, then n times SIGKILLs the
// server and restarts it with boot. Every reboot must pass check (the
// acknowledged state is all there) and serve the golden answers byte for
// byte. recovery_s is the median exec → /readyz 200 time of the n
// restarts; the workload chooses n so that the median is steady and the
// run stays short.
func crashRecover(ctx context.Context, res *runResult, seed int64, n int, srv **serverProc,
	boot func(context.Context) (*serverProc, error), check func(c *http.Client, base string) error) error {
	golden, err := genQueryOps(seed+7919, goldenQueries, []string{classExact})
	if err != nil {
		return err
	}
	c := newClient()
	pre := make([][]byte, len(golden))
	for i := range golden {
		if pre[i], err = goldenAnswer(c, (*srv).base, golden[i].body); err != nil {
			return err
		}
	}
	var boots []float64
	for r := 0; r < n; r++ {
		(*srv).kill9()
		if *srv, err = boot(ctx); err != nil {
			return err
		}
		boots = append(boots, (*srv).bootTime.Seconds())
		c = newClient()
		if err := check(c, (*srv).base); err != nil {
			return res.fail("after kill -9 number %d: %v", r+1, err)
		}
		for i := range golden {
			post, err := goldenAnswer(c, (*srv).base, golden[i].body)
			if err != nil {
				return err
			}
			if !bytes.Equal(pre[i], post) {
				return res.fail("golden query %d differs after kill -9 number %d", i, r+1)
			}
		}
	}
	res.e2e("recovery_s", median(boots), "s")
	return nil
}
