import os
import threading

from perfbench.bench import set_affinity


def test_set_affinity_reaches_every_thread():
    cpus = os.sched_getaffinity(0)
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        set_affinity(os.getpid(), {min(cpus)})
        assert os.sched_getaffinity(0) == {min(cpus)}
        assert os.sched_getaffinity(worker.native_id) == {min(cpus)}
        set_affinity(os.getpid(), cpus)
        assert os.sched_getaffinity(0) == cpus
        assert os.sched_getaffinity(worker.native_id) == cpus
    finally:
        set_affinity(os.getpid(), cpus)
        release.set()
        worker.join()
