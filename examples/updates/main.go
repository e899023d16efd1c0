// User profile update (Sec. III-D): build the dynamic secure index, then
// run secure deletion and secure insertion when a user's interests change
// — every touched bucket is re-masked so the cloud cannot tell which
// bucket actually changed.
//
//	go run ./examples/updates
package main

import (
	"fmt"
	"log"

	"pisd"
	"pisd/internal/dataset"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds, err := dataset.Generate(dataset.Config{
		Users: 1500, Dim: 400, Topics: 15, TopicsPerUser: 2,
		ActiveWords: 40, Noise: 0.02, Seed: 11,
	})
	if err != nil {
		return err
	}

	cfg := pisd.DefaultFrontendConfig(400)
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		return err
	}
	uploads := make([]pisd.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	// A single cloud is the one-shard case of the sharded dynamic index.
	parts, err := sf.BuildShardedDynamicIndex(uploads, 1, nil)
	if err != nil {
		return err
	}
	cs := pisd.NewCloud()
	cs.SetDynIndex(parts[0].Index)
	cs.PutProfiles(parts[0].EncProfiles)
	fmt.Printf("dynamic index over %d users installed at the cloud\n", len(uploads))
	serving, err := sf.NewDynServing(parts, []pisd.DynNode{pisd.NewLocalShard(cs)}, nil, pisd.ServingConfig{})
	if err != nil {
		return err
	}

	// User 42's current interests.
	const userID = 42
	oldProfile := ds.Profiles[userID-1]
	matches, _, err := serving.Search(oldProfile, 5, userID)
	if err != nil {
		return err
	}
	fmt.Printf("before update, user %d (topics %v) matches:\n", userID, ds.UserTopics[userID-1])
	printMatches(matches, ds)

	// The user uploads new pictures: adopt user 900's interest profile.
	newProfile := ds.Profiles[899]
	fmt.Printf("\nuser %d updates interests to topics %v\n", userID, ds.UserTopics[899])

	// Secure deletion of the outdated profile, then secure insertion of
	// the new one.
	if err := serving.Delete(userID, oldProfile); err != nil {
		return err
	}
	if err := serving.Insert(userID, newProfile); err != nil {
		return err
	}

	matches, _, err = serving.Search(newProfile, 5, userID)
	if err != nil {
		return err
	}
	fmt.Printf("after update, user %d matches:\n", userID)
	printMatches(matches, ds)

	st := parts[0].Client.Stats()
	fmt.Printf("\nupdate protocol stats: %d interaction rounds, %d kick-aways\n", st.Rounds, st.Kicks)
	return nil
}

func printMatches(matches []pisd.Match, ds *dataset.Dataset) {
	for rank, m := range matches {
		fmt.Printf("  %d. user %-5d distance %.4f topics %v\n",
			rank+1, m.ID, m.Distance, ds.UserTopics[m.ID-1])
	}
}
