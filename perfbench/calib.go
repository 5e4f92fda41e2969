package main

import (
	"crypto/sha256"
	"fmt"

	"ironsafe/internal/pager"
	"ironsafe/internal/securestore"
	"ironsafe/internal/simtime"
	"ironsafe/internal/transport"
)

// calibKeys derives fixed store keys: the calibration store holds
// benchmark filler, not data anyone protects.
type calibKeys struct{}

func (calibKeys) DeriveKey(label string) ([]byte, error) {
	k := sha256.Sum256([]byte("perfbench calibration " + label))
	return k[:], nil
}

// memAnchor keeps the calibration store's root tag in memory.
type memAnchor struct{ tag []byte }

func (a *memAnchor) StoreRoot(tag []byte) error {
	a.tag = append([]byte(nil), tag...)
	return nil
}

func (a *memAnchor) LoadRoot([]byte) ([]byte, error) { return append([]byte(nil), a.tag...), nil }

// pageReadCalibration is the real cost of a verified secure-store page read
// on this machine, beside what the cost model charges for the same work.
type pageReadCalibration struct {
	pages         int
	realUS        float64 // decrypt + MAC + Merkle verify, per page
	hashesPerPage float64
	modelHostUS   float64 // the model's price of the same meters, host CPU
	modelStoreUS  float64 // the same, storage CPU
}

// calibratePageReads writes pages pages through securestore.OpenWith on a
// MemDevice and times ReadPages over them in scan-sized batches. The model
// side prices the probe's own meter delta with CostModel.PriceCPU on one
// core, so the comparison uses the model's pricing function, not a copy.
func calibratePageReads(pages, batch int, model simtime.CostModel) (pageReadCalibration, error) {
	var meter simtime.Meter
	st, err := securestore.OpenWith(pager.NewMemDevice(), calibKeys{}, &memAnchor{}, &meter, securestore.Options{})
	if err != nil {
		return pageReadCalibration{}, err
	}
	txn := st.Begin()
	idxs := make([]uint32, pages)
	buf := make([]byte, pager.PageSize)
	for i := range idxs {
		if idxs[i], err = txn.Allocate(); err != nil {
			return pageReadCalibration{}, err
		}
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		if err := txn.WritePage(idxs[i], buf); err != nil {
			return pageReadCalibration{}, err
		}
	}
	if err := txn.Commit(); err != nil {
		return pageReadCalibration{}, err
	}

	const rounds = 5
	base := meter.Snapshot()
	var per []float64
	for r := 0; r < rounds; r++ {
		start := now()
		for off := 0; off < pages; off += batch {
			if _, err := st.ReadPages(idxs[off:min(off+batch, pages)]); err != nil {
				return pageReadCalibration{}, err
			}
		}
		per = append(per, us(now().Sub(start))/float64(pages))
	}
	delta := meter.Snapshot().Sub(base)
	read := float64(delta.PagesDecrypted)
	price := func(p simtime.CPUProfile) float64 {
		c := model.PriceCPU(delta, p, 1)
		return ratio(us(c.Decrypt+c.Freshness), read)
	}
	return pageReadCalibration{
		pages:         pages,
		realUS:        median(per),
		hashesPerPage: ratio(float64(delta.MerkleHashes), read),
		modelHostUS:   price(model.Host),
		modelStoreUS:  price(model.Storage),
	}, nil
}

// calibrateFrames times transport.SecureConn Send/Recv of frameBytes-sized
// frames over an in-process pipe: AEAD seal and open plus the copy.
func calibrateFrames(frameBytes int) (float64, error) {
	key := sha256.Sum256([]byte("perfbench calibration channel"))
	cli, srv, err := transport.Pipe(key[:], nil, nil)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	defer srv.Close()
	frames := max(200, (64<<20)/max(frameBytes, 1))
	payload := make([]byte, frameBytes)
	recvd := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, _, err := srv.Recv(); err != nil {
				recvd <- err
				return
			}
		}
		recvd <- nil
	}()
	start := now()
	for i := 0; i < frames; i++ {
		if err := cli.Send("result", payload); err != nil {
			srv.Close()
			<-recvd
			return 0, fmt.Errorf("calibration send: %w", err)
		}
	}
	if err := <-recvd; err != nil {
		return 0, fmt.Errorf("calibration recv: %w", err)
	}
	return us(now().Sub(start)) / float64(frames), nil
}
