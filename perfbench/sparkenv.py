"""Spark session for the benchmark: pinned, quiet, and confined to the checkout."""
from __future__ import annotations

import os

DRIVER_MEMORY = "2g"
#: same as the test suite's session (conftest.py), so figures compare
SHUFFLE_PARTITIONS = 64


def cores() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def start_session(root: str, tmp: str):
    """``local[N≤4]`` session whose Python workers import ``repro`` from
    ``root/src`` and whose scratch files stay under ``tmp``."""
    src = os.path.join(root, "src")
    # Python workers inherit the driver's environment: without src on their
    # path, mapInPandas in SparkGBDTClassifier.fit cannot import repro
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    from pyspark.sql import SparkSession

    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    spark = (
        SparkSession.builder.master(f"local[{cores()}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.local.dir", os.path.join(tmp, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid(spark) -> int:
    return int(spark._jvm.java.lang.ProcessHandle.current().pid())


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM to exit (it exits once its stdin,
    held by this process, is closed)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()
    proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None
