// Distributed deployment: the cloud server CS runs as a TCP service, the
// front end SF talks to it over the wire, and users share encrypted images
// under attribute policies (Sec. III-E compatibility).
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pisd"
	"pisd/internal/dataset"
	"pisd/internal/sharing"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Cloud side: an untrusted TCP service holding only ciphertext.
	cloud := pisd.NewCloud()
	server := pisd.NewCloudServer(cloud)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	fmt.Printf("cloud server listening at %s\n", addr)

	// --- Front-end side.
	sf, err := pisd.NewFrontend(pisd.DefaultFrontendConfig(400))
	if err != nil {
		return err
	}
	// The front end drives the cloud as a one-node shard pool.
	remote := pisd.NewRemoteShard(addr)
	defer remote.Close()
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), remote)
	if err != nil {
		return err
	}

	ds, err := dataset.Generate(dataset.Config{
		Users: 1000, Dim: 400, Topics: 12, TopicsPerUser: 2,
		ActiveWords: 40, Noise: 0.02, Seed: 3,
	})
	if err != nil {
		return err
	}
	uploads := make([]pisd.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		return err
	}
	if err := pool.InstallShard(0, idx, encProfiles); err != nil {
		return err
	}
	fmt.Printf("outsourced index (%0.1f KB) and %d encrypted profiles over TCP\n",
		float64(idx.SizeBytes())/1024, len(encProfiles))

	// --- A user shares an encrypted image under an attribute policy and
	//     uploads it directly to the cloud (service flow step 1).
	client, err := pisd.DialCloud(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	authority, err := pisd.NewSharingAuthority()
	if err != nil {
		return err
	}
	image := []byte("...image bytes of my 2013 graduation photo...")
	ct, err := authority.Encrypt(sharing.AllOf("family", "college/2013"), image)
	if err != nil {
		return err
	}
	if err := client.StoreImage(context.Background(), 7, ct.Payload); err != nil {
		return err
	}
	fmt.Println("user 7 uploaded a policy-protected encrypted image")

	// A friend holding both attributes decrypts; a stranger cannot.
	friend := authority.IssueKeys([]sharing.Attribute{"family", "college/2013"})
	if _, err := sharing.Decrypt(friend, ct); err != nil {
		return fmt.Errorf("friend should decrypt: %w", err)
	}
	stranger := authority.IssueKeys([]sharing.Attribute{"coworker"})
	if _, err := sharing.Decrypt(stranger, ct); err == nil {
		return fmt.Errorf("stranger decrypted the shared image")
	}
	fmt.Println("sharing policy enforced: friend decrypts, stranger denied")

	// --- Remote privacy-preserving discovery, with traffic accounting.
	sentBefore, recvBefore := remote.Traffic()
	matches, _, err := sf.Discover(context.Background(), pool, ds.Profiles[4], 5, 5)
	if err != nil {
		return err
	}
	sentAfter, recvAfter := remote.Traffic()
	fmt.Printf("\ndiscovery for user 5 over TCP (%d B up, %d B down):\n",
		sentAfter-sentBefore, recvAfter-recvBefore)
	for rank, m := range matches {
		fmt.Printf("  %d. user %-5d distance %.4f topics %v\n",
			rank+1, m.ID, m.Distance, ds.UserTopics[m.ID-1])
	}
	return nil
}
