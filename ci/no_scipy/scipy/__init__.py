raise ImportError("scipy is a test dependency only")
